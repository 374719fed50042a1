// Command ermia-logdump inspects an ERMIA log directory: it lists segment
// files, walks every block in offset order, and optionally decodes the
// records inside commit blocks. Useful for debugging recovery issues and
// for seeing the on-disk structures of §3.3 (skip records, segment-closing
// records, overflow chains, checkpoint markers) with your own eyes.
//
//	ermia-logdump -dir /tmp/ermia-data            # block summary
//	ermia-logdump -dir /tmp/ermia-data -records   # decode records too
package main

import (
	"flag"
	"fmt"
	"os"

	"ermia/internal/wal"
)

func main() {
	dir := flag.String("dir", "", "log directory (required)")
	records := flag.Bool("records", false, "decode records inside commit blocks")
	flag.Parse()
	if *dir == "" {
		fmt.Fprintln(os.Stderr, "ermia-logdump: -dir required")
		os.Exit(2)
	}
	st, err := wal.NewDirStorage(*dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ermia-logdump:", err)
		os.Exit(1)
	}

	names, err := st.List()
	if err != nil {
		fmt.Fprintln(os.Stderr, "ermia-logdump:", err)
		os.Exit(1)
	}
	fmt.Println("files:")
	for _, n := range names {
		f, err := st.Open(n)
		if err != nil {
			continue
		}
		size, _ := f.Size()
		f.Close()
		fmt.Printf("  %-40s %12d bytes\n", n, size)
	}

	fmt.Println("\nblocks:")
	count := map[uint8]int{}
	res, err := wal.Recover(st, func(b wal.Block) error {
		count[b.Type]++
		fmt.Printf("  %-14s offset=%#012x seg=%-2d payload=%-6d prev=%#x\n",
			typeName(b.Type), b.LSN.Offset(), b.LSN.Segment(), len(b.Payload), b.Prev)
		if *records && (b.Type == wal.BlockCommit || b.Type == wal.BlockOverflow) {
			dumpRecords(b.Payload)
		}
		return nil
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "ermia-logdump: scan:", err)
		os.Exit(1)
	}
	fmt.Printf("\nnext offset: %#x\n", res.NextOffset)
	for typ, n := range count {
		fmt.Printf("%-14s %d\n", typeName(typ), n)
	}
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
		return "ckpt-end"
	default:
		return fmt.Sprintf("type%d", t)
	}
}

// dumpRecords decodes the record stream with a local copy of the framing
// (kept deliberately independent of internal/core so the tool keeps working
// while the engine is being debugged).
func dumpRecords(p []byte) {
	le := func(b []byte) uint32 {
		return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
	}
	le64 := func(b []byte) uint64 {
		return uint64(le(b)) | uint64(le(b[4:]))<<32
	}
	for len(p) > 0 {
		kind := p[0]
		p = p[1:]
		switch kind {
		case 1: // create table
			if len(p) < 6 {
				return
			}
			id := le(p)
			nlen := int(uint16(p[4]) | uint16(p[5])<<8)
			p = p[6:]
			if len(p) < nlen {
				return
			}
			fmt.Printf("      create-table id=%d name=%q\n", id, p[:nlen])
			p = p[nlen:]
		case 2, 17: // insert / insert+secondary
			if len(p) < 16 {
				return
			}
			table, oid := le(p), le64(p[4:])
			klen := int(le(p[12:]))
			p = p[16:]
			if len(p) < klen+4 {
				return
			}
			key := p[:klen]
			vlen := int(le(p[klen:]))
			p = p[klen+4:]
			if len(p) < vlen {
				return
			}
			fmt.Printf("      insert table=%d oid=%d key=%x vlen=%d\n", table, oid, key, vlen)
			p = p[vlen:]
			if kind == 17 {
				if len(p) < 1 {
					return
				}
				n := int(p[0])
				p = p[1:]
				for i := 0; i < n; i++ {
					if len(p) < 8 {
						return
					}
					idx := le(p)
					sklen := int(le(p[4:]))
					p = p[8:]
					if len(p) < sklen {
						return
					}
					fmt.Printf("        secondary idx=%d key=%x\n", idx, p[:sklen])
					p = p[sklen:]
				}
			}
		case 3: // update
			if len(p) < 16 {
				return
			}
			table, oid := le(p), le64(p[4:])
			vlen := int(le(p[12:]))
			p = p[16:]
			if len(p) < vlen {
				return
			}
			fmt.Printf("      update table=%d oid=%d vlen=%d\n", table, oid, vlen)
			p = p[vlen:]
		case 4: // delete (keyless, older logs)
			if len(p) < 12 {
				return
			}
			fmt.Printf("      delete table=%d oid=%d\n", le(p), le64(p[4:]))
			p = p[12:]
		case 5: // delete carrying the key
			if len(p) < 16 {
				return
			}
			table, oid := le(p), le64(p[4:])
			klen := int(le(p[12:]))
			p = p[16:]
			if len(p) < klen {
				return
			}
			fmt.Printf("      delete table=%d oid=%d key=%x\n", table, oid, p[:klen])
			p = p[klen:]
		case 16: // create index
			if len(p) < 10 {
				return
			}
			id, tid := le(p), le(p[4:])
			nlen := int(uint16(p[8]) | uint16(p[9])<<8)
			p = p[10:]
			if len(p) < nlen {
				return
			}
			fmt.Printf("      create-index id=%d table=%d name=%q\n", id, tid, p[:nlen])
			p = p[nlen:]
		default:
			fmt.Printf("      unknown record kind %d (%d bytes left)\n", kind, len(p))
			return
		}
	}
}
