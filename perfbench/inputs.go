package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"

	"tpminer/internal/api"
	"tpminer/internal/core"
	"tpminer/internal/dataio"
	"tpminer/internal/gen"
	"tpminer/internal/interval"
	"tpminer/internal/pattern"
	"tpminer/internal/server"
)

// The inputs of every workload are drawn from one fixed Quest database
// (D=16000, C=10, N=100, generator seed 1). The benchmark seed picks
// which of its sequences a run uses and in what order. Quest's planted
// arrangements come from the generator seed, and they decide most of
// the search cost, so a fresh generator seed per run would change the
// work per operation by a fifth; sampling a fixed pool keeps the inputs
// seed-dependent while every seed asks for comparable work.
const (
	poolSequences = 16000
	poolSeed      = 1
	maxIntervals  = 4
)

// questPool generates the fixed pool.
func questPool() (*interval.Database, error) {
	db, _, err := gen.Quest(gen.QuestConfig{
		NumSequences: poolSequences,
		AvgIntervals: 10,
		NumSymbols:   100,
		Seed:         poolSeed,
	})
	if err != nil {
		return nil, fmt.Errorf("generate Quest pool: %w", err)
	}
	return db, nil
}

// draw returns the pool's non-empty sequences in a seed-determined
// order. Empty sequences are dropped because the upload formats cannot
// carry them, and the reference must mine exactly what the server holds.
func draw(pool *interval.Database, seed int64) []interval.Sequence {
	rng := rand.New(rand.NewSource(seed))
	out := make([]interval.Sequence, 0, len(pool.Sequences))
	for _, i := range rng.Perm(len(pool.Sequences)) {
		if s := pool.Sequences[i]; len(s.Intervals) > 0 {
			out = append(out, s)
		}
	}
	return out
}

// mineInputs is one dataset, the mine request over it, and the result
// the serial miner computes for that request in process.
type mineInputs struct {
	db   *interval.Database
	csv  []byte // the upload body
	spec api.MineSpec
	body []byte // the mine request body
	ref  []server.MinedPattern
}

// newMineInputs builds the upload and request for seqs and mines the
// reference result.
func newMineInputs(seqs []interval.Sequence, minSupport float64, win api.WindowSpec) (*mineInputs, error) {
	db := &interval.Database{Sequences: seqs}
	var buf bytes.Buffer
	if err := dataio.WriteCSV(&buf, db); err != nil {
		return nil, err
	}
	spec := api.MineSpec{
		MiningOptions: api.MiningOptions{MinSupport: minSupport, MaxIntervals: maxIntervals},
		Window:        win,
	}
	body, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	in := &mineInputs{db: db, csv: buf.Bytes(), spec: spec, body: body}
	if in.ref, err = reference(db, spec); err != nil {
		return nil, err
	}
	return in, nil
}

// reference mines db serially in process and renders the patterns the
// way the server does.
func reference(db *interval.Database, spec api.MineSpec) ([]server.MinedPattern, error) {
	rs, _, err := core.MineTemporal(db, spec.Options(0))
	if err != nil {
		return nil, fmt.Errorf("reference mine: %w", err)
	}
	return minedPatterns(rs), nil
}

// minedPatterns renders miner results as the mine route's rows.
func minedPatterns(rs []pattern.TemporalResult) []server.MinedPattern {
	out := make([]server.MinedPattern, len(rs))
	for i, r := range rs {
		out[i] = server.MinedPattern{
			Support:   r.Support,
			Pattern:   r.Pattern.String(),
			Relations: r.Pattern.RelationSummary(),
		}
	}
	return out
}

// samePatterns compares a response's rows with the reference, naming
// the first difference.
func samePatterns(got, want []server.MinedPattern) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d patterns, reference has %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("pattern %d is %+v, reference has %+v", i, got[i], want[i])
		}
	}
	return nil
}

// ingestEvent is one NDJSON line of the events route.
type ingestEvent struct {
	Seq    string `json:"seq"`
	Symbol string `json:"symbol"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
}

// eventChunks splits seqs into request bodies of exactly perChunk
// events each, whole sequences in order; the last sequence of a chunk
// is cut to fit and its remainder dropped, so no sequence spans two
// appends. It also returns each chunk's sequences as the server will
// append them.
func eventChunks(seqs []interval.Sequence, perChunk int) ([][]byte, [][]interval.Sequence, error) {
	var (
		bodies [][]byte
		added  [][]interval.Sequence
		buf    bytes.Buffer
		cur    []interval.Sequence
		n      int
	)
	enc := json.NewEncoder(&buf)
	for _, s := range seqs {
		take := min(len(s.Intervals), perChunk-n)
		part := interval.Sequence{ID: s.ID, Intervals: s.Intervals[:take]}
		for _, iv := range part.Intervals {
			if err := enc.Encode(ingestEvent{Seq: s.ID, Symbol: iv.Symbol, Start: iv.Start, End: iv.End}); err != nil {
				return nil, nil, err
			}
		}
		cur = append(cur, part)
		if n += take; n == perChunk {
			bodies = append(bodies, append([]byte(nil), buf.Bytes()...))
			added = append(added, cur)
			buf.Reset()
			cur, n = nil, 0
		}
	}
	return bodies, added, nil
}
