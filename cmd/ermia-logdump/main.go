// Command ermia-logdump inspects an ERMIA log directory: it lists segment
// files, walks every block in offset order (printing a gap between two
// segments where it stops), and optionally decodes the records inside
// commit blocks and checkpoint blobs. Useful for debugging
// recovery issues and for seeing the on-disk structures of §3.3 (skip
// records, segment-closing records, overflow chains, checkpoint markers)
// with your own eyes.
//
//	ermia-logdump -dir /tmp/ermia-data            # block summary
//	ermia-logdump -dir /tmp/ermia-data -records   # decode records too
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"ermia/internal/core"
	"ermia/internal/wal"
)

func main() {
	dir := flag.String("dir", "", "log directory (required)")
	records := flag.Bool("records", false, "decode records inside commit blocks and checkpoint blobs")
	flag.Parse()
	if *dir == "" {
		fmt.Fprintln(os.Stderr, "ermia-logdump: -dir required")
		os.Exit(2)
	}
	if err := run(os.Stdout, *dir, *records); err != nil {
		fmt.Fprintln(os.Stderr, "ermia-logdump:", err)
		os.Exit(1)
	}
}

// run writes the dump of the log directory dir to w.
func run(w io.Writer, dir string, records bool) error {
	st, err := wal.NewDirStorage(dir)
	if err != nil {
		return err
	}
	names, err := st.List()
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "files:")
	for _, n := range names {
		f, err := st.Open(n)
		if err != nil {
			continue
		}
		size, _ := f.Size()
		fmt.Fprintf(w, "  %-40s %12d bytes\n", n, size)
		if records && strings.HasPrefix(n, "ckpt-") && !strings.HasSuffix(n, ".tmp") {
			image := make([]byte, size)
			if _, err = f.ReadAt(image, 0); err == nil || err == io.EOF {
				err = core.DumpCheckpoint(w, "      ", image)
			}
			if err != nil {
				fmt.Fprintf(w, "      %v\n", err)
			}
		}
		f.Close()
	}

	fmt.Fprintln(w, "\nblocks:")
	count := map[uint8]int{}
	res, err := wal.Recover(st, 0, func(b wal.Block) error {
		count[b.Type]++
		fmt.Fprintf(w, "  %-14s offset=%#012x seg=%-2d payload=%-6d prev=%#x\n",
			typeName(b.Type), b.LSN.Offset(), b.LSN.Segment(), len(b.Payload), b.Prev)
		if records && (b.Type == wal.BlockCommit || b.Type == wal.BlockOverflow) {
			if err := core.DumpRecords(w, "      ", b.Payload); err != nil {
				fmt.Fprintf(w, "      %v\n", err)
			}
		}
		return nil
	})
	if err != nil {
		// A gap between segments, or unreadable storage: show where the
		// blocks above stop, and exit non-zero.
		fmt.Fprintf(w, "  %v\n", err)
		err = fmt.Errorf("scan: %w", err)
	} else {
		fmt.Fprintf(w, "\nnext offset: %#x\n", res.NextOffset)
	}
	for typ, n := range count {
		fmt.Fprintf(w, "%-14s %d\n", typeName(typ), n)
	}
	return err
}

func typeName(t uint8) string {
	switch t {
	case wal.BlockCommit:
		return "commit"
	case wal.BlockSkip:
		return "skip"
	case wal.BlockOverflow:
		return "overflow"
	case wal.BlockCheckpointBegin:
		return "ckpt-begin"
	case wal.BlockCheckpointEnd:
		return "ckpt-end (retired)"
	default:
		return fmt.Sprintf("type%d", t)
	}
}
