package persist

import (
	"fmt"
	"io"
	"sort"

	"tpminer/internal/blob"
)

// printer wraps an io.Writer and remembers the first write error, so a
// long dump can short-circuit instead of formatting into a broken pipe
// and the caller gets the failure instead of silent truncation.
type printer struct {
	w   io.Writer
	err error
}

func (p *printer) printf(format string, args ...any) {
	if p.err != nil {
		return
	}
	_, p.err = fmt.Fprintf(p.w, format, args...)
}

// Inspect dumps the data directory's snapshot and WAL record headers to
// w for offline debugging. It never modifies the directory: a missing
// dir is an error naming it, not an empty dump.
func Inspect(dir string, w io.Writer) error {
	bs, err := blob.NewFileStore(dir)
	if err != nil {
		return fmt.Errorf("persist: inspect: %w", err)
	}
	defer bs.Close()
	return inspect(bs, dir, w)
}

// inspect dumps the store's snapshot and WAL record headers to w: one
// line per blob and per record, and an explicit flag on the first
// damaged frame of each log (with its byte offset and whether it looks
// torn or corrupt). label names the store in the output. The returned
// error covers listing the store and writing to w; an unreadable blob is
// reported on its own entry in the output, not as an error, so one bad
// object does not hide the rest.
func inspect(bs blob.Store, label string, w io.Writer) error {
	keys, err := bs.List("")
	if err != nil {
		return fmt.Errorf("persist: inspect: %w", err)
	}
	var snaps, wals []string
	for _, key := range keys {
		if isSnapshotKey(key) {
			snaps = append(snaps, key)
		}
		if isWALKey(key) {
			wals = append(wals, key)
		}
	}
	if len(snaps) == 0 && len(wals) == 0 {
		p := &printer{w: w}
		p.printf("%s: no snapshots or WAL segments\n", label)
		return p.err
	}
	p := &printer{w: w}

	for _, name := range snaps {
		buf, err := bs.Get(name)
		if err != nil {
			// A stat/read failure is a finding, not a zero-byte
			// snapshot: report it on the entry.
			p.printf("snapshot %s  UNREADABLE: %v\n", name, err)
			continue
		}
		state, jobs, verSeq, err := decodeSnapshotFile(buf)
		if err != nil {
			p.printf("snapshot %s  %d bytes  INVALID: %v\n", name, len(buf), err)
			continue
		}
		p.printf("snapshot %s  %d bytes  version=%d datasets=%d jobs=%d\n",
			name, len(buf), verSeq, len(state), len(jobs))
		names := make([]string, 0, len(state))
		for n := range state {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			ds := state[n]
			p.printf("  dataset %-20q version=%-6d sequences=%-6d intervals=%d\n",
				n, ds.Version, len(ds.DB.Sequences), ds.DB.NumIntervals())
		}
		ids := make([]string, 0, len(jobs))
		for id := range jobs {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		for _, id := range ids {
			js := jobs[id]
			p.printf("  job     %-20q version=%-6d spec=%dB result=%dB result_version=%d\n",
				id, js.SpecVersion, len(js.Spec), len(js.Result), js.ResultVersion)
		}
	}

	for _, name := range wals {
		data, err := bs.Get(name)
		if err != nil {
			p.printf("wal %s  UNREADABLE: %v\n", name, err)
			continue
		}
		p.printf("wal %s  %d bytes\n", name, len(data))
		stop := scanWAL(data, func(off int, rec record, payloadLen int) {
			switch {
			case isJobType(rec.typ):
				p.printf("  off=%-10d %-10s version=%-6d job=%q blob=%dB payload=%dB\n",
					off, rec.typeName(), rec.version, rec.name, len(rec.blob), payloadLen)
			case rec.typ == recDelete:
				p.printf("  off=%-10d %-6s version=%-6d dataset=%q payload=%dB\n",
					off, rec.typeName(), rec.version, rec.name, payloadLen)
			default:
				p.printf("  off=%-10d %-6s version=%-6d dataset=%q sequences=%d intervals=%d payload=%dB\n",
					off, rec.typeName(), rec.version, rec.name,
					len(rec.db.Sequences), rec.db.NumIntervals(), payloadLen)
			}
		})
		if stop != nil {
			p.printf("  %s at offset %d: %v (%d trailing bytes unreadable)\n",
				stop.damage, stop.off, stop.err, len(data)-stop.off)
		}
	}
	return p.err
}
