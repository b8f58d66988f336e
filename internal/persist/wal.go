package persist

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/bits"

	"tpminer/internal/interval"
)

// WAL wire format. Every record is one frame:
//
//	offset  size  field
//	0       4     payload length N, little-endian uint32
//	4       4     CRC32C (Castagnoli) of the payload, little-endian
//	8       N     payload
//
// The payload is:
//
//	byte     record type: 1 put, 2 append, 3 delete,
//	         4 job-put, 5 job-delete, 6 job-result
//	uvarint  store version the record installed
//	uvarint  name length, then the dataset (or job id) bytes
//	—        for put/append: the database encoding below
//	—        for job-put/job-result: uvarint blob length, then the blob
//
// Job records (types 4–6) carry the continuous-mining job table: the
// name field holds the job id and the trailing blob is an opaque
// payload owned by the layer above (the server journals JSON job specs
// and latest-result summaries). Keeping the payload opaque means the
// WAL format is closed under job-schema evolution — persist never
// needs a version bump when the spec grows a field. Job records draw
// their versions from the same store-wide counter as dataset records,
// which is what keeps the replay-skip invariant (`version <=
// SnapshotVersion` ⇒ already in the snapshot) sound across both kinds.
//
// A database is encoded as:
//
//	uvarint  sequence count
//	per sequence:
//	  uvarint  id length, then the id bytes
//	  uvarint  interval count
//	  per interval: uvarint symbol length + symbol, varint start, varint end
//
// The frame CRC makes every record self-validating: recovery and the
// inspector can walk a log byte-by-byte and classify the first bad
// frame as either a torn tail (not enough bytes for the declared
// length) or corruption (CRC or decode failure).
const (
	recPut       byte = 1
	recAppend    byte = 2
	recDelete    byte = 3
	recJobPut    byte = 4
	recJobDelete byte = 5
	recJobResult byte = 6

	frameHeaderLen = 8

	// maxRecordBytes bounds a single frame so a corrupt length field can
	// never drive a giant allocation during recovery.
	maxRecordBytes = 1 << 30
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// record is one decoded WAL record. name holds the dataset name for
// dataset records and the job id for job records.
type record struct {
	typ     byte
	version uint64
	name    string
	db      *interval.Database // put/append only
	blob    []byte             // job-put/job-result only
}

func (r record) typeName() string {
	switch r.typ {
	case recPut:
		return "put"
	case recAppend:
		return "append"
	case recDelete:
		return "delete"
	case recJobPut:
		return "job-put"
	case recJobDelete:
		return "job-delete"
	case recJobResult:
		return "job-result"
	}
	return fmt.Sprintf("unknown(%d)", r.typ)
}

// isJobType reports whether typ is one of the job record types.
func isJobType(typ byte) bool {
	return typ == recJobPut || typ == recJobDelete || typ == recJobResult
}

// frameErr classifies why a frame failed to parse. torn means the
// buffer ended before the frame did — the signature of a crash mid
// write — while corrupt means the bytes are there but wrong (flipped
// CRC, bad type, garbled varint).
type frameErr struct {
	torn bool
	msg  string
}

func (e *frameErr) Error() string { return e.msg }

var errEndOfLog = errors.New("persist: end of log")

// appendFrame appends the framed, checksummed payload to buf.
func appendFrame(buf, payload []byte) []byte {
	var hdr [frameHeaderLen]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, castagnoli))
	buf = append(buf, hdr[:]...)
	return append(buf, payload...)
}

// parseFrame reads one frame from buf. It returns the payload and the
// total frame size. io.EOF-like end of input returns errEndOfLog; a
// damaged frame returns *frameErr.
func parseFrame(buf []byte) (payload []byte, frameLen int, err error) {
	if len(buf) == 0 {
		return nil, 0, errEndOfLog
	}
	if len(buf) < frameHeaderLen {
		return nil, 0, &frameErr{torn: true, msg: fmt.Sprintf("torn frame header: %d bytes, want %d", len(buf), frameHeaderLen)}
	}
	n := binary.LittleEndian.Uint32(buf[0:4])
	if n > maxRecordBytes {
		return nil, 0, &frameErr{msg: fmt.Sprintf("corrupt frame: implausible payload length %d", n)}
	}
	if uint64(len(buf)-frameHeaderLen) < uint64(n) {
		return nil, 0, &frameErr{torn: true, msg: fmt.Sprintf("torn frame payload: %d bytes present, %d declared", len(buf)-frameHeaderLen, n)}
	}
	payload = buf[frameHeaderLen : frameHeaderLen+int(n)]
	if got, want := crc32.Checksum(payload, castagnoli), binary.LittleEndian.Uint32(buf[4:8]); got != want {
		return nil, 0, &frameErr{msg: fmt.Sprintf("corrupt frame: CRC mismatch (stored %08x, computed %08x)", want, got)}
	}
	return payload, frameHeaderLen + int(n), nil
}

// walStop says where and why a WAL scan stopped before the end of the
// log: damage names the bad spot ("TORN frame", "CORRUPT frame" or, for
// an intact frame whose payload is not a valid record, "CORRUPT
// record"), off is its byte offset, and err the cause.
type walStop struct {
	off    int
	damage string
	err    error
}

// scanWAL walks a segment's frames in order and calls f with each
// record, its byte offset, and its payload length. It stops at the
// first damaged frame or undecodable record, because framing after it
// cannot be trusted, and returns where and why; at the clean end of the
// log it returns nil. Recovery and Inspect both read segments with it.
func scanWAL(data []byte, f func(off int, rec record, payloadLen int)) *walStop {
	for off := 0; ; {
		payload, n, err := parseFrame(data[off:])
		switch fe := err.(type) {
		case nil:
		case *frameErr:
			damage := "CORRUPT frame"
			if fe.torn {
				damage = "TORN frame"
			}
			return &walStop{off: off, damage: damage, err: fe}
		default: // errEndOfLog
			return nil
		}
		rec, err := decodeRecord(payload)
		if err != nil {
			return &walStop{off: off, damage: "CORRUPT record", err: err}
		}
		f(off, rec, len(payload))
		off += n
	}
}

// ------------------------------------------------------------- encoding

// AppendString appends s as a uvarint length and its bytes, the string
// encoding of the WAL, the snapshot and the remote worker wire, which
// Cursor.Str reads.
func AppendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// databaseLen is the exact length of appendDatabase's encoding of db,
// so an encoder can size its buffer once.
func databaseLen(db *interval.Database) int {
	n := uvarintLen(uint64(len(db.Sequences)))
	for i := range db.Sequences {
		seq := &db.Sequences[i]
		n += stringLen(seq.ID) + uvarintLen(uint64(len(seq.Intervals)))
		for _, iv := range seq.Intervals {
			n += stringLen(iv.Symbol) + varintLen(iv.Start) + varintLen(iv.End)
		}
	}
	return n
}

// uvarintLen is the length of binary.AppendUvarint's encoding of x: one
// byte per started group of 7 bits.
func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

// varintLen is the length of binary.AppendVarint's zig-zag encoding of x.
func varintLen(x int64) int { return uvarintLen(uint64(x<<1) ^ uint64(x>>63)) }

func stringLen(s string) int { return uvarintLen(uint64(len(s))) + len(s) }

func appendDatabase(buf []byte, db *interval.Database) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(db.Sequences)))
	for i := range db.Sequences {
		seq := &db.Sequences[i]
		buf = AppendString(buf, seq.ID)
		buf = binary.AppendUvarint(buf, uint64(len(seq.Intervals)))
		for _, iv := range seq.Intervals {
			buf = AppendString(buf, iv.Symbol)
			buf = binary.AppendVarint(buf, iv.Start)
			buf = binary.AppendVarint(buf, iv.End)
		}
	}
	return buf
}

// encodeRecord builds the payload of one WAL record, the exact inverse
// of decodeRecord.
func encodeRecord(rec record) []byte {
	size := 1 + 2*binary.MaxVarintLen64 + len(rec.name) + len(rec.blob)
	if rec.db != nil {
		size += databaseLen(rec.db)
	}
	buf := make([]byte, 0, size)
	buf = append(buf, rec.typ)
	buf = binary.AppendUvarint(buf, rec.version)
	buf = AppendString(buf, rec.name)
	switch rec.typ {
	case recPut, recAppend:
		buf = appendDatabase(buf, rec.db)
	case recJobPut, recJobResult:
		buf = binary.AppendUvarint(buf, uint64(len(rec.blob)))
		buf = append(buf, rec.blob...)
	}
	return buf
}

// ------------------------------------------------------------- decoding

// Cursor walks an encoded payload with bounds checking: a read past the
// end is an error, never a panic. The WAL, the snapshot and the remote
// worker wire decode with it, so their bytes share one varint reader.
type Cursor struct {
	buf []byte
	off int
}

// NewCursor returns a cursor at the start of buf.
func NewCursor(buf []byte) *Cursor { return &Cursor{buf: buf} }

// Len returns the number of bytes not yet read.
func (c *Cursor) Len() int { return len(c.buf) - c.off }

// The smallest encodings of the repeated elements, in bytes: a sequence
// is an id length and an interval count, an interval a symbol length and
// two varint times, and a snapshot dataset entry a name length, a
// version and a sequence count. A declared count is checked against the
// bytes left before anything is sized from it, so a hostile or corrupt
// count fails instead of driving a large allocation.
const (
	minSequenceBytes     = 2
	minIntervalBytes     = 3
	minDatasetEntryBytes = 3
)

// Fits reports whether n elements of at least size bytes each could
// still follow in the payload. A decoder checks every declared count
// with it before sizing an allocation by that count.
func (c *Cursor) Fits(n uint64, size int) bool {
	return n <= uint64((len(c.buf)-c.off)/size)
}

// Byte reads one byte.
func (c *Cursor) Byte() (byte, error) {
	if c.off >= len(c.buf) {
		return 0, errors.New("payload truncated")
	}
	b := c.buf[c.off]
	c.off++
	return b, nil
}

// Uvarint reads one binary.AppendUvarint value.
func (c *Cursor) Uvarint() (uint64, error) {
	v, n := binary.Uvarint(c.buf[c.off:])
	if n <= 0 {
		return 0, errors.New("bad uvarint")
	}
	c.off += n
	return v, nil
}

// Varint reads one binary.AppendVarint (zig-zag) value.
func (c *Cursor) Varint() (int64, error) {
	v, n := binary.Varint(c.buf[c.off:])
	if n <= 0 {
		return 0, errors.New("bad varint")
	}
	c.off += n
	return v, nil
}

// Str reads one AppendString value.
func (c *Cursor) Str() (string, error) {
	n, err := c.Uvarint()
	if err != nil {
		return "", err
	}
	if uint64(len(c.buf)-c.off) < n {
		return "", errors.New("string length past payload end")
	}
	s := string(c.buf[c.off : c.off+int(n)])
	c.off += int(n)
	return s, nil
}

// bytes reads a uvarint-prefixed byte blob, copying it out of the
// frame buffer so the record outlives the read buffer.
func (c *Cursor) bytes() ([]byte, error) {
	n, err := c.Uvarint()
	if err != nil {
		return nil, err
	}
	if uint64(len(c.buf)-c.off) < n {
		return nil, errors.New("blob length past payload end")
	}
	b := make([]byte, n)
	copy(b, c.buf[c.off:c.off+int(n)])
	c.off += int(n)
	return b, nil
}

func (c *Cursor) database() (*interval.Database, error) {
	nSeq, err := c.Uvarint()
	if err != nil {
		return nil, err
	}
	if !c.Fits(nSeq, minSequenceBytes) {
		return nil, fmt.Errorf("sequence count %d past payload end", nSeq)
	}
	db := &interval.Database{}
	if nSeq > 0 {
		db.Sequences = make([]interval.Sequence, 0, nSeq)
	}
	for s := uint64(0); s < nSeq; s++ {
		id, err := c.Str()
		if err != nil {
			return nil, err
		}
		nIv, err := c.Uvarint()
		if err != nil {
			return nil, err
		}
		if !c.Fits(nIv, minIntervalBytes) {
			return nil, fmt.Errorf("interval count %d past payload end", nIv)
		}
		seq := interval.Sequence{ID: id}
		if nIv > 0 {
			seq.Intervals = make([]interval.Interval, 0, nIv)
		}
		for i := uint64(0); i < nIv; i++ {
			sym, err := c.Str()
			if err != nil {
				return nil, err
			}
			start, err := c.Varint()
			if err != nil {
				return nil, err
			}
			end, err := c.Varint()
			if err != nil {
				return nil, err
			}
			seq.Intervals = append(seq.Intervals, interval.Interval{Symbol: sym, Start: start, End: end})
		}
		db.Sequences = append(db.Sequences, seq)
	}
	return db, nil
}

// decodeRecord parses a WAL record payload.
func decodeRecord(payload []byte) (record, error) {
	c := &Cursor{buf: payload}
	typ, err := c.Byte()
	if err != nil {
		return record{}, err
	}
	if typ < recPut || typ > recJobResult {
		return record{}, fmt.Errorf("unknown record type %d", typ)
	}
	version, err := c.Uvarint()
	if err != nil {
		return record{}, err
	}
	name, err := c.Str()
	if err != nil {
		return record{}, err
	}
	rec := record{typ: typ, version: version, name: name}
	switch typ {
	case recPut, recAppend:
		if rec.db, err = c.database(); err != nil {
			return record{}, err
		}
	case recJobPut, recJobResult:
		if rec.blob, err = c.bytes(); err != nil {
			return record{}, err
		}
	}
	if c.off != len(payload) {
		return record{}, fmt.Errorf("%d trailing bytes after record", len(payload)-c.off)
	}
	return rec, nil
}
