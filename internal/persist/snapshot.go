package persist

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"sort"
	"strconv"
	"strings"
)

// Snapshot file format:
//
//	offset  size  field
//	0       8     magic "TPMSNAP1"
//	8       8     payload length, little-endian uint64
//	16      4     CRC32C of the payload, little-endian
//	20      —     payload
//
// The payload is:
//
//	uvarint  store version counter (verSeq) at snapshot time
//	uvarint  dataset count
//	per dataset: uvarint name length + name, uvarint version,
//	             database encoding (see wal.go)
//	uvarint  job count (absent in pre-jobs snapshots; a payload that
//	         ends after the datasets decodes as zero jobs)
//	per job: uvarint id length + id,
//	         uvarint spec version,   uvarint spec length + spec bytes,
//	         uvarint result version, uvarint result length + result bytes
//
// The job section was appended after the dataset table, so old
// snapshots (which ended at the last dataset) still decode — the
// decoder treats end-of-payload at that point as "no jobs" instead of
// an error. Spec and result bytes are opaque to persist, exactly as in
// the WAL job records.
//
// Snapshots commit through the file layer's atomic put (temp + fsync +
// rename), so a crash mid-snapshot leaves either the previous state or
// a temp file that recovery removes. A snapshot that fails the length
// or CRC check (e.g. a partially copied file) is skipped in favour of
// an older valid one.
var snapshotMagic = [8]byte{'T', 'P', 'M', 'S', 'N', 'A', 'P', '1'}

const snapshotHeaderLen = 20

func snapshotName(verSeq uint64) string { return fmt.Sprintf("snapshot-%020d.snap", verSeq) }
func walName(verSeq uint64) string      { return fmt.Sprintf("wal-%020d.log", verSeq) }

// parseSeqName extracts the sequence number from a "prefix-<n>.ext"
// data file name.
func parseSeqName(name, prefix, ext string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, ext) {
		return 0, false
	}
	num := name[len(prefix) : len(name)-len(ext)]
	v, err := strconv.ParseUint(num, 10, 64)
	if err != nil {
		return 0, false
	}
	return v, true
}

// isWALKey and isSnapshotKey classify a data file name.
func isWALKey(name string) bool {
	_, ok := parseSeqName(name, "wal-", ".log")
	return ok
}

func isSnapshotKey(name string) bool {
	_, ok := parseSeqName(name, "snapshot-", ".snap")
	return ok
}

// encodeSnapshot serializes the full store state (the payload only; see
// encodeSnapshotFile for the framed on-disk form).
func encodeSnapshot(state map[string]DatasetState, jobs map[string]JobState, verSeq uint64) []byte {
	names := make([]string, 0, len(state))
	for name := range state {
		names = append(names, name)
	}
	sort.Strings(names)
	buf := make([]byte, 0, 1<<12)
	buf = binary.AppendUvarint(buf, verSeq)
	buf = binary.AppendUvarint(buf, uint64(len(names)))
	for _, name := range names {
		ds := state[name]
		buf = AppendString(buf, name)
		buf = binary.AppendUvarint(buf, ds.Version)
		buf = appendDatabase(buf, ds.DB)
	}
	ids := make([]string, 0, len(jobs))
	for id := range jobs {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	buf = binary.AppendUvarint(buf, uint64(len(ids)))
	for _, id := range ids {
		js := jobs[id]
		buf = AppendString(buf, id)
		buf = binary.AppendUvarint(buf, js.SpecVersion)
		buf = binary.AppendUvarint(buf, uint64(len(js.Spec)))
		buf = append(buf, js.Spec...)
		buf = binary.AppendUvarint(buf, js.ResultVersion)
		buf = binary.AppendUvarint(buf, uint64(len(js.Result)))
		buf = append(buf, js.Result...)
	}
	return buf
}

// decodeSnapshot parses a snapshot payload.
func decodeSnapshot(payload []byte) (map[string]DatasetState, map[string]JobState, uint64, error) {
	c := &Cursor{buf: payload}
	verSeq, err := c.Uvarint()
	if err != nil {
		return nil, nil, 0, err
	}
	n, err := c.Uvarint()
	if err != nil {
		return nil, nil, 0, err
	}
	if !c.Fits(n, minDatasetEntryBytes) {
		return nil, nil, 0, fmt.Errorf("dataset count %d past payload end", n)
	}
	state := make(map[string]DatasetState, n)
	for i := uint64(0); i < n; i++ {
		name, err := c.Str()
		if err != nil {
			return nil, nil, 0, err
		}
		ver, err := c.Uvarint()
		if err != nil {
			return nil, nil, 0, err
		}
		db, err := c.database()
		if err != nil {
			return nil, nil, 0, err
		}
		state[name] = DatasetState{DB: db, Version: ver}
	}
	jobs := make(map[string]JobState)
	if c.off < len(payload) { // pre-jobs snapshots end here
		nj, err := c.Uvarint()
		if err != nil {
			return nil, nil, 0, err
		}
		if uint64(len(payload)-c.off) < nj {
			return nil, nil, 0, fmt.Errorf("job count %d past payload end", nj)
		}
		for i := uint64(0); i < nj; i++ {
			id, err := c.Str()
			if err != nil {
				return nil, nil, 0, err
			}
			var js JobState
			if js.SpecVersion, err = c.Uvarint(); err != nil {
				return nil, nil, 0, err
			}
			if js.Spec, err = c.bytes(); err != nil {
				return nil, nil, 0, err
			}
			if js.ResultVersion, err = c.Uvarint(); err != nil {
				return nil, nil, 0, err
			}
			if js.Result, err = c.bytes(); err != nil {
				return nil, nil, 0, err
			}
			if len(js.Result) == 0 {
				js.Result = nil
			}
			jobs[id] = js
		}
	}
	if c.off != len(payload) {
		return nil, nil, 0, fmt.Errorf("%d trailing bytes after snapshot", len(payload)-c.off)
	}
	return state, jobs, verSeq, nil
}

// encodeSnapshotFile frames the encoded state with the magic, length,
// and CRC header — the exact bytes a snapshot file holds.
func encodeSnapshotFile(state map[string]DatasetState, jobs map[string]JobState, verSeq uint64) []byte {
	return frameSnapshot(encodeSnapshot(state, jobs, verSeq))
}

// frameSnapshot prefixes a snapshot payload with its header.
func frameSnapshot(payload []byte) []byte {
	buf := make([]byte, snapshotHeaderLen, snapshotHeaderLen+len(payload))
	copy(buf[0:8], snapshotMagic[:])
	binary.LittleEndian.PutUint64(buf[8:16], uint64(len(payload)))
	binary.LittleEndian.PutUint32(buf[16:20], crc32.Checksum(payload, castagnoli))
	return append(buf, payload...)
}

// decodeSnapshotFile validates a snapshot file's framing and decodes
// the state it holds.
func decodeSnapshotFile(buf []byte) (map[string]DatasetState, map[string]JobState, uint64, error) {
	if len(buf) < snapshotHeaderLen {
		return nil, nil, 0, fmt.Errorf("truncated snapshot: %d bytes", len(buf))
	}
	if [8]byte(buf[0:8]) != snapshotMagic {
		return nil, nil, 0, fmt.Errorf("bad snapshot magic %q", buf[0:8])
	}
	n := binary.LittleEndian.Uint64(buf[8:16])
	if n != uint64(len(buf)-snapshotHeaderLen) {
		return nil, nil, 0, fmt.Errorf("snapshot length mismatch: header says %d, file holds %d", n, len(buf)-snapshotHeaderLen)
	}
	payload := buf[snapshotHeaderLen:]
	if got, want := crc32.Checksum(payload, castagnoli), binary.LittleEndian.Uint32(buf[16:20]); got != want {
		return nil, nil, 0, fmt.Errorf("snapshot CRC mismatch (stored %08x, computed %08x)", want, got)
	}
	return decodeSnapshot(payload)
}
