package repl

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io/fs"

	"ermia/internal/wal"
)

// epochFileName is the mirror-storage file holding the replica's persisted
// primary-epoch high-water mark. The name parses as no segment, so log
// recovery skips it like a checkpoint blob.
const epochFileName = "EPOCH"

// LoadEpoch reads the persisted primary epoch from st, returning 0 when the
// file does not exist (a replica that has never observed an epoch); an
// unreadable file is an error, not an absent fence.
func LoadEpoch(st wal.Storage) (uint64, error) {
	f, err := st.Open(epochFileName)
	if errors.Is(err, fs.ErrNotExist) {
		return 0, nil // never persisted
	}
	var buf [8]byte
	if err == nil {
		defer f.Close()
		_, err = f.ReadAt(buf[:], 0)
	}
	if err != nil {
		return 0, fmt.Errorf("repl: read epoch file: %w", err)
	}
	return binary.LittleEndian.Uint64(buf[:]), nil
}

// SaveEpoch durably records the primary epoch in st. The epoch is the fence
// against a healed deposed primary: once a replica has persisted epoch e it
// refuses any stream stamped below e, across restarts. It is published by
// Rename, so a crash leaves the old epoch or the new one, never a torn file.
func SaveEpoch(st wal.Storage, e uint64) error {
	tmp := epochFileName + ".tmp"
	f, err := st.Create(tmp)
	if err == nil {
		if _, err = f.WriteAt(binary.LittleEndian.AppendUint64(nil, e), 0); err == nil {
			err = f.Sync()
		}
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err == nil {
		err = st.Rename(tmp, epochFileName)
	}
	if err != nil {
		return fmt.Errorf("repl: save epoch file: %w", err)
	}
	return nil
}
