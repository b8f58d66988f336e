package remote

import (
	"bytes"
	"compress/gzip"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"regexp"
	"sync"
	"time"

	"tpminer/internal/core"
	"tpminer/internal/endpoint"
	"tpminer/internal/interval"
	"tpminer/internal/pattern"
	"tpminer/internal/persist"
	"tpminer/internal/shard"
)

// The wire protocol. Everything on the mine path is binary and built on
// persist's varint primitives (persist.AppendString and persist.Cursor),
// so the worker wire has one codec. Shard payloads are the WAL's varint
// database codec, gzipped: shard pushes dominate wire volume, and the
// codec is already round-trip-tested by the persistence suite. Mine and
// count bodies, and the replies to them, are the encoding below. Error
// replies, health, the shard list and metrics stay JSON: they are
// operator surfaces, not on the mine path.

// The push is PUT /v1/worker/shards/{digest}, where digest is the hex
// SHA-256 of the *uncompressed* shard encoding: the worker keys the
// shard by it and checks the inflated body against it before caching,
// so it never caches bytes under another digest. Two headers ride along:
const (
	// shardKeyHeader labels the push with its ShardKey, for the worker's
	// shard list and log line only; the worker never keys by it.
	shardKeyHeader = "X-Shard-Key"
	// shardReplacesHeader names the digest the pushing coordinator last
	// pushed to this worker for the same (dataset, shard), which the
	// worker frees: one coordinator keeps one copy per shard there, and
	// no coordinator can free a digest it did not push.
	shardReplacesHeader = "X-Shard-Replaces"
)

// The mine and count bodies. POST /v1/worker/mine carries a mine body
// and a 200 answers a result body; POST /v1/worker/count carries a
// count body and a 200 answers a supports body. Ints are zig-zag
// varints, counts and symbol indices uvarints, strings a uvarint length
// and their bytes, bools one byte (0 or 1), floats the uvarint of their
// IEEE-754 bits and durations varint nanoseconds. Each body starts with
// the format version byte:
//
//	mine body      version, digest, shard, kind, top-k, options,
//	               timeout budget in ms
//	count body     version, symbols, digest, shard, kind,
//	               count + temporal patterns, count + coincidence
//	               patterns, max span, max gap
//	result body    version, symbols, count + (temporal pattern,
//	               support) rows, count + (coincidence pattern, support)
//	               rows, stats
//	supports body  version, count + supports
//
//	symbols        count + strings: the body's distinct symbols, which
//	               its patterns name by index
//	temporal       count of elements; per element a count of endpoints,
//	               each a symbol index, a varint occurrence and a kind
//	               byte (0 start, 1 finish)
//	coincidence    count of elements; per element a count of symbol
//	               indices
//	options        core.Options field by field, in declaration order;
//	               the unexported steal cutoff stays off the wire
//	stats          core.Stats field by field, in declaration order
//
// A decoder checks every declared count against the bytes left before
// it sizes an allocation by it, and consumes its body exactly. A build
// that sends a field another lacks therefore writes bytes the other
// refuses (trailing bytes, or a body that ends early), so a worker of
// another build answers 400 invalid_request instead of mining without
// the field; a change of the format bumps wireVersion, which an older
// worker refuses the same way. The encoding holds the structs'
// values exactly, so a remote mine merges to the same bytes as a local
// one.
const wireVersion byte = 1

// wireContentType labels every binary body: shard pushes, mine and
// count bodies, and their replies.
const wireContentType = "application/octet-stream"

// The smallest encodings of the repeated elements, in bytes, which
// bound each declared count: a result row is a pattern and a support,
// and a temporal endpoint a symbol index, an occurrence and a kind.
// Every other element (a symbol, a pattern, an element, a symbol
// reference, a support) takes at least one byte.
const (
	minRowBytes      = 2
	minEndpointBytes = 3
)

// mineBody is the body of POST /v1/worker/mine: the shard request,
// addressed to one cached shard by its digest. The request's Shard is
// the coordinator's shard index, reproduced in the worker's responses
// and error attributions. timeoutMillis is the client's remaining
// deadline budget; the worker bounds its mine by it so an abandoned
// request cannot hold the shard hostage even if the connection teardown
// is slow to propagate.
type mineBody struct {
	digest        string
	req           shard.MineShardRequest
	timeoutMillis int64
}

// countBody is the body of POST /v1/worker/count.
type countBody struct {
	digest string
	req    shard.CountRequest
}

// Worker-side error codes of the api.ErrorEnvelope; the client
// dispatches on shard_not_loaded.
const (
	codeShardNotLoaded = "shard_not_loaded"
	codeBadRequest     = "invalid_request"
	codeBadPayload     = "invalid_shard_payload"
	codeMineFailed     = "mine_failed"
	codeMineTimeout    = "mine_timeout"
)

// ------------------------------------------------------------- encoding

func appendInt(buf []byte, v int) []byte { return binary.AppendVarint(buf, int64(v)) }

func appendBool(buf []byte, v bool) []byte {
	if v {
		return append(buf, 1)
	}
	return append(buf, 0)
}

// symbols numbers a body's distinct symbols in order of first use.
type symbols struct {
	index map[string]uint64
	names []string
}

// ref appends sym's index, numbering sym if it is new.
func (s *symbols) ref(buf []byte, sym string) []byte {
	i, ok := s.index[sym]
	if !ok {
		if s.index == nil {
			s.index = make(map[string]uint64)
		}
		i = uint64(len(s.names))
		s.index[sym] = i
		s.names = append(s.names, sym)
	}
	return binary.AppendUvarint(buf, i)
}

func (s *symbols) temporal(buf []byte, p pattern.Temporal) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(p.Elements)))
	for _, el := range p.Elements {
		buf = binary.AppendUvarint(buf, uint64(len(el)))
		for _, e := range el {
			buf = s.ref(buf, e.Symbol)
			buf = appendInt(buf, e.Occ)
			buf = append(buf, byte(e.Kind))
		}
	}
	return buf
}

func (s *symbols) coinc(buf []byte, p pattern.Coinc) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(p.Elements)))
	for _, el := range p.Elements {
		buf = binary.AppendUvarint(buf, uint64(len(el)))
		for _, sym := range el {
			buf = s.ref(buf, sym)
		}
	}
	return buf
}

// body appends a body that carries patterns: the version byte, the
// symbol table, and rest, the remainder of the body, encoded through s.
func (s *symbols) body(buf, rest []byte) []byte {
	buf = append(buf, wireVersion)
	buf = binary.AppendUvarint(buf, uint64(len(s.names)))
	for _, name := range s.names {
		buf = persist.AppendString(buf, name)
	}
	return append(buf, rest...)
}

func appendMineBody(buf []byte, b *mineBody) []byte {
	buf = append(buf, wireVersion)
	buf = persist.AppendString(buf, b.digest)
	buf = appendInt(buf, b.req.Shard)
	buf = persist.AppendString(buf, string(b.req.Kind))
	buf = appendInt(buf, b.req.TopK)
	buf = appendOptions(buf, &b.req.Opt)
	return binary.AppendVarint(buf, b.timeoutMillis)
}

func appendOptions(buf []byte, o *core.Options) []byte {
	buf = binary.AppendUvarint(buf, math.Float64bits(o.MinSupport))
	buf = appendInt(buf, o.MinCount)
	buf = appendInt(buf, o.MaxElements)
	buf = appendInt(buf, o.MaxIntervals)
	buf = appendInt(buf, o.MaxItemsPerElement)
	buf = binary.AppendVarint(buf, o.MaxSpan)
	buf = binary.AppendVarint(buf, o.MaxGap)
	buf = appendBool(buf, o.KeepOccurrences)
	buf = appendInt(buf, o.MaxPatterns)
	buf = binary.AppendVarint(buf, int64(o.TimeBudget))
	buf = appendBool(buf, o.DisableGlobalPruning)
	buf = appendBool(buf, o.DisablePairPruning)
	buf = appendBool(buf, o.DisablePostfixPruning)
	buf = appendBool(buf, o.DisableSizePruning)
	return appendInt(buf, o.Parallel)
}

func appendCountBody(buf []byte, b *countBody) []byte {
	var s symbols
	rest := persist.AppendString(nil, b.digest)
	rest = appendInt(rest, b.req.Shard)
	rest = persist.AppendString(rest, string(b.req.Kind))
	rest = binary.AppendUvarint(rest, uint64(len(b.req.Temporal)))
	for _, p := range b.req.Temporal {
		rest = s.temporal(rest, p)
	}
	rest = binary.AppendUvarint(rest, uint64(len(b.req.Coinc)))
	for _, p := range b.req.Coinc {
		rest = s.coinc(rest, p)
	}
	rest = binary.AppendVarint(rest, b.req.MaxSpan)
	rest = binary.AppendVarint(rest, b.req.MaxGap)
	return s.body(buf, rest)
}

func appendResult(buf []byte, r *core.Result) []byte {
	var s symbols
	rest := binary.AppendUvarint(nil, uint64(len(r.Temporal)))
	for _, pr := range r.Temporal {
		rest = s.temporal(rest, pr.Pattern)
		rest = appendInt(rest, pr.Support)
	}
	rest = binary.AppendUvarint(rest, uint64(len(r.Coinc)))
	for _, pr := range r.Coinc {
		rest = s.coinc(rest, pr.Pattern)
		rest = appendInt(rest, pr.Support)
	}
	rest = appendStats(rest, &r.Stats)
	return s.body(buf, rest)
}

func appendStats(buf []byte, st *core.Stats) []byte {
	buf = appendInt(buf, st.Sequences)
	buf = appendInt(buf, st.MinCount)
	buf = appendInt(buf, st.ItemsRemoved)
	for _, v := range [...]int64{st.Nodes, st.Emitted, st.CandidateScans, st.PairPruned, st.PostfixPruned,
		st.SizePruned, st.JobsSpawned, st.StealsTaken, st.MaxQueueDepth, int64(st.Elapsed)} {
		buf = binary.AppendVarint(buf, v)
	}
	buf = appendBool(buf, st.Truncated)
	return persist.AppendString(buf, st.TruncatedBy)
}

func appendSupports(buf []byte, r *shard.CountResponse) []byte {
	buf = append(buf, wireVersion)
	buf = binary.AppendUvarint(buf, uint64(len(r.Supports)))
	for _, v := range r.Supports {
		buf = appendInt(buf, v)
	}
	return buf
}

// ------------------------------------------------------------- decoding

// decoder reads one body. Its first error sticks: every later read
// returns a zero value and no count lets a loop run, so a body decodes
// straight through and done reports the first fault.
type decoder struct {
	c    *persist.Cursor
	syms []string
	err  error
}

// newDecoder starts a body, reading and checking its version byte.
func newDecoder(data []byte) *decoder {
	d := &decoder{c: persist.NewCursor(data)}
	if v := d.byte(); d.err == nil && v != wireVersion {
		d.fail(fmt.Errorf("unknown format version %d, want %d", v, wireVersion))
	}
	return d
}

// fail records err, unless it is nil or an earlier error stuck.
func (d *decoder) fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

// done reports the body's first fault, or trailing bytes after it.
func (d *decoder) done(what string) error {
	if d.err == nil && d.c.Len() != 0 {
		d.err = fmt.Errorf("%d trailing bytes", d.c.Len())
	}
	if d.err != nil {
		return fmt.Errorf("remote: decode %s: %w", what, d.err)
	}
	return nil
}

func (d *decoder) byte() byte {
	if d.err != nil {
		return 0
	}
	b, err := d.c.Byte()
	d.fail(err)
	return b
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, err := d.c.Uvarint()
	d.fail(err)
	return v
}

func (d *decoder) int64() int64 {
	if d.err != nil {
		return 0
	}
	v, err := d.c.Varint()
	d.fail(err)
	return v
}

func (d *decoder) int() int {
	v := d.int64()
	if int64(int(v)) != v {
		d.fail(fmt.Errorf("integer %d overflows int", v))
		return 0
	}
	return int(v)
}

func (d *decoder) str() string {
	if d.err != nil {
		return ""
	}
	s, err := d.c.Str()
	d.fail(err)
	return s
}

// bool reads a bool, which is exactly 0 or 1, so that every accepted
// body re-encodes to the same bytes.
func (d *decoder) bool() bool {
	b := d.byte()
	if b > 1 {
		d.fail(fmt.Errorf("bool byte %d", b))
	}
	return b == 1
}

// float reads a float. NaN and the infinities are refused: no caller
// sends them, and a NaN MinSupport would pass every range check.
func (d *decoder) float() float64 {
	f := math.Float64frombits(d.uvarint())
	if math.IsNaN(f) || math.IsInf(f, 0) {
		d.fail(fmt.Errorf("non-finite float %v", f))
		return 0
	}
	return f
}

// count reads a declared count of elements of at least size bytes each
// and checks that they could still follow, before anything is sized by
// it; a failed check returns 0.
func (d *decoder) count(size int) int {
	n := d.uvarint()
	if d.err == nil && !d.c.Fits(n, size) {
		d.fail(fmt.Errorf("count %d past body end", n))
	}
	if d.err != nil {
		return 0
	}
	return int(n)
}

// table reads the body's symbol table.
func (d *decoder) table() {
	d.syms = make([]string, d.count(1))
	for i := range d.syms {
		d.syms[i] = d.str()
	}
}

func (d *decoder) symbol() string {
	i := d.uvarint()
	if d.err == nil && i >= uint64(len(d.syms)) {
		d.fail(fmt.Errorf("symbol index %d outside a table of %d", i, len(d.syms)))
	}
	if d.err != nil {
		return ""
	}
	return d.syms[i]
}

func (d *decoder) endpoint() endpoint.Endpoint {
	e := endpoint.Endpoint{Symbol: d.symbol()}
	e.Occ = d.int()
	switch k := endpoint.Kind(d.byte()); k {
	case endpoint.Start, endpoint.Finish:
		e.Kind = k
	default:
		d.fail(fmt.Errorf("endpoint kind %d is neither start nor finish", k))
	}
	return e
}

func (d *decoder) temporal() pattern.Temporal {
	var p pattern.Temporal
	if n := d.count(1); n > 0 {
		p.Elements = make([][]endpoint.Endpoint, n)
		for i := range p.Elements {
			el := make([]endpoint.Endpoint, d.count(minEndpointBytes))
			for j := range el {
				el[j] = d.endpoint()
			}
			p.Elements[i] = el
		}
	}
	return p
}

func (d *decoder) coinc() pattern.Coinc {
	var p pattern.Coinc
	if n := d.count(1); n > 0 {
		p.Elements = make([][]string, n)
		for i := range p.Elements {
			el := make([]string, d.count(1))
			for j := range el {
				el[j] = d.symbol()
			}
			p.Elements[i] = el
		}
	}
	return p
}

func (d *decoder) options() core.Options {
	var o core.Options
	o.MinSupport = d.float()
	o.MinCount = d.int()
	o.MaxElements = d.int()
	o.MaxIntervals = d.int()
	o.MaxItemsPerElement = d.int()
	o.MaxSpan = d.int64()
	o.MaxGap = d.int64()
	o.KeepOccurrences = d.bool()
	o.MaxPatterns = d.int()
	o.TimeBudget = time.Duration(d.int64())
	o.DisableGlobalPruning = d.bool()
	o.DisablePairPruning = d.bool()
	o.DisablePostfixPruning = d.bool()
	o.DisableSizePruning = d.bool()
	o.Parallel = d.int()
	return o
}

func (d *decoder) stats() core.Stats {
	var st core.Stats
	st.Sequences = d.int()
	st.MinCount = d.int()
	st.ItemsRemoved = d.int()
	for _, v := range [...]*int64{&st.Nodes, &st.Emitted, &st.CandidateScans, &st.PairPruned, &st.PostfixPruned,
		&st.SizePruned, &st.JobsSpawned, &st.StealsTaken, &st.MaxQueueDepth, (*int64)(&st.Elapsed)} {
		*v = d.int64()
	}
	st.Truncated = d.bool()
	st.TruncatedBy = d.str()
	return st
}

func decodeMineBody(data []byte) (mineBody, error) {
	d := newDecoder(data)
	var b mineBody
	b.digest = d.str()
	b.req.Shard = d.int()
	b.req.Kind = core.Kind(d.str())
	b.req.TopK = d.int()
	b.req.Opt = d.options()
	b.timeoutMillis = d.int64()
	return b, d.done("mine body")
}

func decodeCountBody(data []byte) (countBody, error) {
	d := newDecoder(data)
	d.table()
	var b countBody
	b.digest = d.str()
	b.req.Shard = d.int()
	b.req.Kind = core.Kind(d.str())
	if n := d.count(1); n > 0 {
		b.req.Temporal = make([]pattern.Temporal, n)
		for i := range b.req.Temporal {
			b.req.Temporal[i] = d.temporal()
		}
	}
	if n := d.count(1); n > 0 {
		b.req.Coinc = make([]pattern.Coinc, n)
		for i := range b.req.Coinc {
			b.req.Coinc[i] = d.coinc()
		}
	}
	b.req.MaxSpan = d.int64()
	b.req.MaxGap = d.int64()
	return b, d.done("count body")
}

// decodeResult decodes a mine reply. Its bytes come from a worker and
// are untrusted like any request body.
func decodeResult(data []byte) (*core.Result, error) {
	d := newDecoder(data)
	d.table()
	var r core.Result
	if n := d.count(minRowBytes); n > 0 {
		r.Temporal = make([]pattern.TemporalResult, n)
		for i := range r.Temporal {
			r.Temporal[i].Pattern = d.temporal()
			r.Temporal[i].Support = d.int()
		}
	}
	if n := d.count(minRowBytes); n > 0 {
		r.Coinc = make([]pattern.CoincResult, n)
		for i := range r.Coinc {
			r.Coinc[i].Pattern = d.coinc()
			r.Coinc[i].Support = d.int()
		}
	}
	r.Stats = d.stats()
	if err := d.done("mine result"); err != nil {
		return nil, err
	}
	return &r, nil
}

// decodeSupports decodes a count reply.
func decodeSupports(data []byte) (*shard.CountResponse, error) {
	d := newDecoder(data)
	var r shard.CountResponse
	if n := d.count(1); n > 0 {
		r.Supports = make([]int, n)
		for i := range r.Supports {
			r.Supports[i] = d.int()
		}
	}
	if err := d.done("count result"); err != nil {
		return nil, err
	}
	return &r, nil
}

// ------------------------------------------------------------- shard push

// ShardData is one shard's push payload, encoded lazily and exactly
// once: the coordinator builds a ShardData per (dataset, version, shard)
// and every worker client pushing that shard shares it. Mine and count
// RPCs name the shard by its digest, so the first RPC computes the
// digest; the gzip a push needs is paid only when a push happens.
type ShardData struct {
	Key ShardKey
	DB  *interval.Database

	digestOnce sync.Once
	raw        []byte // EncodeDatabase; released once the payload is built
	digest     string // hex SHA-256 of raw

	payloadOnce sync.Once
	payload     []byte // gzip(raw)
	err         error
}

// NewShardData wraps one shard sub-database for pushing. db must be
// treated as immutable (the store's copy-on-write contract).
func NewShardData(key ShardKey, db *interval.Database) *ShardData {
	return &ShardData{Key: key, DB: db}
}

// Digest returns the hex SHA-256 of the shard's uncompressed encoding,
// computing it on first call.
func (d *ShardData) Digest() string {
	d.digestOnce.Do(func() {
		d.raw = persist.EncodeDatabase(nil, d.DB)
		sum := sha256.Sum256(d.raw)
		d.digest = hex.EncodeToString(sum[:])
	})
	return d.digest
}

// Encode returns the compressed payload and the digest of its
// uncompressed form, building both on first call.
func (d *ShardData) Encode() (payload []byte, digest string, err error) {
	digest = d.Digest()
	d.payloadOnce.Do(func() {
		var buf bytes.Buffer
		zw := gzip.NewWriter(&buf)
		if _, err := zw.Write(d.raw); err != nil {
			d.err = fmt.Errorf("remote: compress shard %s: %w", d.Key, err)
			return
		}
		if err := zw.Close(); err != nil {
			d.err = fmt.Errorf("remote: compress shard %s: %w", d.Key, err)
			return
		}
		d.payload = buf.Bytes()
		d.raw = nil
	})
	return d.payload, digest, d.err
}

// digestRE matches a digest as the push path carries it: 64 lowercase
// hex characters.
var digestRE = regexp.MustCompile(`^[0-9a-f]{64}$`)

// decodeShardPayload inflates and decodes one pushed shard body, which
// must hash to wantDigest: a worker never caches bytes under another
// digest. maxBytes bounds the inflated size so a hostile or corrupt
// payload cannot balloon worker memory.
func decodeShardPayload(r io.Reader, wantDigest string, maxBytes int64) (*interval.Database, int64, error) {
	zr, err := gzip.NewReader(r)
	if err != nil {
		return nil, 0, fmt.Errorf("remote: shard payload is not gzip: %w", err)
	}
	defer zr.Close()
	raw, err := io.ReadAll(io.LimitReader(zr, maxBytes+1))
	if err != nil {
		return nil, 0, fmt.Errorf("remote: inflate shard payload: %w", err)
	}
	if int64(len(raw)) > maxBytes {
		return nil, 0, fmt.Errorf("remote: shard payload exceeds %d bytes inflated", maxBytes)
	}
	sum := sha256.Sum256(raw)
	if got := hex.EncodeToString(sum[:]); got != wantDigest {
		return nil, 0, fmt.Errorf("remote: shard digest mismatch: got %s, want %s", got, wantDigest)
	}
	db, err := persist.DecodeDatabase(raw)
	if err != nil {
		return nil, 0, err
	}
	return db, int64(len(raw)), nil
}
