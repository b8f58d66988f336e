package remote

import (
	"bytes"
	"compress/gzip"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"regexp"
	"sync"

	"tpminer/internal/interval"
	"tpminer/internal/persist"
	"tpminer/internal/shard"
)

// The wire protocol. Mine and count requests are JSON — patterns,
// supports, and stats are strings, ints, and bools, all of which
// round-trip encoding/json exactly, so a remote mine merges to the same
// bytes as a local one. Shard payloads are the WAL's varint database
// codec, gzipped: shard pushes dominate wire volume, and the binary
// codec is both far smaller than JSON and already round-trip-tested by
// the persistence suite.

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

// mineWire is the body of POST /v1/worker/mine: the shard request,
// addressed to one cached shard by its digest. The request's Shard is
// the coordinator's shard index, reproduced in the worker's responses
// and error attributions.
type mineWire struct {
	Digest string `json:"digest"`
	shard.MineShardRequest
	// TimeoutMillis is the client's remaining deadline budget; the worker
	// bounds its mine by it so an abandoned request cannot hold the shard
	// hostage even if the connection teardown is slow to propagate.
	TimeoutMillis int64 `json:"timeout_ms,omitempty"`
}

// countWire is the body of POST /v1/worker/count.
type countWire struct {
	Digest string `json:"digest"`
	shard.CountRequest
}

// A successful mine answers a core.Result (shard.MineShardResponse),
// and a successful count a shard.CountResponse.

// errWire mirrors the main server's uniform error envelope.
type errWire struct {
	Error struct {
		Code    string `json:"code"`
		Message string `json:"message"`
	} `json:"error"`
}

// Worker-side error codes the client dispatches on.
const (
	codeShardNotLoaded = "shard_not_loaded"
	codeBadRequest     = "invalid_request"
	codeBadPayload     = "invalid_shard_payload"
	codeMineFailed     = "mine_failed"
	codeMineTimeout    = "mine_timeout"
)

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
