// Package incremental maintains the frequent temporal patterns of a
// growing database without re-mining from scratch on every insertion —
// the incremental extension of P-TPMiner (the authors' own follow-up
// direction; flagged as an extension beyond the two-page paper in
// DESIGN.md).
//
// # Technique: the lazy semi-frequent buffer
//
// A full mine at buffer threshold B = ceil(µ·minCount), µ in (0, 1],
// stores every pattern with support ≥ B together with its exact
// support. After that:
//
//   - Each append only updates the buffered supports by matching the
//     new sequences (one indexed containment test per buffered pattern
//     per new sequence) — no mining at all. The test is
//     pattern.Index.Contains under the options' MaxSpan and MaxGap, the
//     matcher the shard count round and the brute-force oracle use, so
//     appends honor both bounds exactly as a full mine does.
//   - A pattern absent from the buffer had support ≤ B-1 at the last
//     full mine and can have gained at most one per appended sequence
//     since, so its support is ≤ B-1+k after k appended sequences. As
//     long as B-1+k < minCount, no absent pattern can be frequent and
//     the buffer answers exactly.
//   - When an append exhausts that slack, one full re-mine runs and the
//     slack resets. With a relative support threshold σ the slack is
//     proportional to the database size — about (1-µ)·σ·n appended
//     sequences between re-mines — the amortized behaviour incremental
//     mining is after. (A smaller µ buffers more and re-mines less.)
//
// The result set visible through Patterns is always exactly what a
// from-scratch core.MineTemporal run on the accumulated database would
// report; the test-suite verifies the equivalence on randomized append
// workloads, including threshold-crossing patterns.
package incremental

import (
	"context"
	"fmt"

	"tpminer/internal/core"
	"tpminer/internal/endpoint"
	"tpminer/internal/interval"
	"tpminer/internal/pattern"
)

// Miner maintains frequent temporal patterns over a growing database.
// Not safe for concurrent use.
type Miner struct {
	opt         core.Options
	bufferRatio float64

	db interval.Database

	// buffer holds every raw (occurrence-labelled) pattern whose
	// support was >= bufMinAtRemine at the last full mine, with exact
	// supports kept current through appends. Keyed by pattern key.
	buffer map[string]*bufferEntry

	bufMinAtRemine int // B: buffer threshold of the last full mine
	appendedSince  int // k: sequences appended since the last full mine

	stats IncStats
}

type bufferEntry struct {
	pat     pattern.Temporal
	support int
}

// IncStats reports how the miner has processed its appends.
type IncStats struct {
	Appends          int // Append calls
	FullRemines      int // appends that triggered a full re-mine
	IncrementalSteps int // appends absorbed by the buffer alone
	BufferSize       int // patterns currently buffered
	Sequences        int // accumulated database size
	MinCount         int // current absolute support threshold
}

// NewMiner creates an incremental miner. opt carries the support
// threshold (relative MinSupport recomputes as the database grows; an
// absolute MinCount stays fixed, which caps the usable slack) and any
// pattern constraints. bufferRatio is µ in (0, 1]: smaller buffers more
// patterns and stretches the interval between full re-mines at the cost
// of memory. opt.KeepOccurrences and opt.Parallel are managed
// internally and must be unset.
func NewMiner(opt core.Options, bufferRatio float64) (*Miner, error) {
	if bufferRatio <= 0 || bufferRatio > 1 {
		return nil, fmt.Errorf("incremental: buffer ratio %v outside (0,1]", bufferRatio)
	}
	if opt.KeepOccurrences {
		return nil, fmt.Errorf("incremental: KeepOccurrences is managed internally")
	}
	if opt.Parallel != 0 {
		return nil, fmt.Errorf("incremental: Parallel is not supported")
	}
	if opt.MaxPatterns != 0 || opt.TimeBudget != 0 {
		// A truncated re-mine would leave semi-frequent patterns out of
		// the buffer and silently break the exactness guarantee.
		return nil, fmt.Errorf("incremental: MaxPatterns/TimeBudget are not supported")
	}
	if _, err := core.ResolveMinCount(opt, 0); err != nil {
		return nil, fmt.Errorf("incremental: %w", err)
	}
	return &Miner{
		opt:         opt,
		bufferRatio: bufferRatio,
		buffer:      make(map[string]*bufferEntry),
	}, nil
}

// minCount returns the absolute support threshold for n sequences.
func (m *Miner) minCount(n int) int {
	c, err := core.ResolveMinCount(m.opt, n)
	if err != nil {
		// NewMiner validated the options; n only changes the arithmetic.
		panic(fmt.Sprintf("incremental: threshold resolution failed: %v", err))
	}
	return c
}

// bufferMin returns the buffer admission threshold for a given absolute
// minCount.
func (m *Miner) bufferMin(minCount int) int {
	b := int(float64(minCount)*m.bufferRatio + 0.999999)
	if b < 1 {
		b = 1
	}
	if b > minCount {
		b = minCount
	}
	return b
}

// Append adds sequences to the database and brings the pattern state up
// to date. It reports whether the append was absorbed incrementally
// (false means a full re-mine ran).
func (m *Miner) Append(seqs ...interval.Sequence) (incremental bool, err error) {
	return m.AppendCtx(context.Background(), seqs...)
}

// AppendCtx is Append with cooperative cancellation of the full re-mine
// an append may trigger. When the context is cancelled mid-re-mine the
// append is rolled back — the database and pattern state are exactly as
// before the call — so the miner stays usable and the append can be
// retried.
func (m *Miner) AppendCtx(ctx context.Context, seqs ...interval.Sequence) (incremental bool, err error) {
	// Validate and index the increment before mutating any state.
	newIdx, err := indexIncrement(seqs)
	if err != nil {
		return false, err
	}
	m.stats.Appends++

	first := m.db.Len() == 0
	prevLen := m.db.Len()
	prevSince := m.appendedSince
	m.db.Sequences = append(m.db.Sequences, seqs...)
	n := m.db.Len()
	newMinCount := m.minCount(n)
	m.stats.Sequences = n
	m.stats.MinCount = newMinCount

	// Tentatively absorb the increment. Exactness condition: an absent
	// pattern's support is at most B-1+k; it must stay below the
	// current threshold.
	m.appendedSince += len(seqs)
	if first || m.bufMinAtRemine-1+m.appendedSince >= newMinCount {
		if err := m.fullRemine(ctx, newMinCount); err != nil {
			// Roll back the append so the accumulated database and the
			// buffer stay mutually consistent.
			m.db.Sequences = m.db.Sequences[:prevLen]
			m.appendedSince = prevSince
			m.stats.Sequences = prevLen
			if prevLen > 0 {
				m.stats.MinCount = m.minCount(prevLen)
			} else {
				m.stats.MinCount = 0
			}
			return false, err
		}
		return false, nil
	}

	for _, e := range m.buffer {
		for _, ix := range newIdx {
			if ix.Contains(e.pat, m.opt.MaxSpan, m.opt.MaxGap) {
				e.support++
			}
		}
	}
	m.stats.IncrementalSteps++
	m.stats.BufferSize = len(m.buffer)
	return true, nil
}

// indexIncrement encodes and indexes an increment, rejecting any
// sequence that cannot be endpoint-encoded before any state is touched.
// AppendCtx runs it before mutating. Endpoint encoding fails only where
// Sequence.Valid does, which is the check tpmd's dataset store runs on
// its appends.
func indexIncrement(seqs []interval.Sequence) ([]pattern.Index, error) {
	idx := make([]pattern.Index, len(seqs))
	for i := range seqs {
		slices, err := endpoint.Encode(seqs[i])
		if err != nil {
			return nil, fmt.Errorf("incremental: sequence %d: %w", i, err)
		}
		idx[i] = pattern.BuildIndex(slices)
	}
	return idx, nil
}

// fullRemine rebuilds the buffer from scratch for the current database
// and threshold.
func (m *Miner) fullRemine(ctx context.Context, minCount int) error {
	bufMin := m.bufferMin(minCount)
	opt := m.opt
	opt.KeepOccurrences = true
	opt.MinSupport = 0
	opt.MinCount = bufMin
	rs, _, err := core.MineTemporalCtx(ctx, &m.db, opt)
	if err != nil {
		return fmt.Errorf("incremental: full re-mine: %w", err)
	}
	m.buffer = make(map[string]*bufferEntry, len(rs))
	for _, r := range rs {
		m.buffer[r.Pattern.Key()] = &bufferEntry{pat: r.Pattern, support: r.Support}
	}
	m.bufMinAtRemine = bufMin
	m.appendedSince = 0
	m.stats.FullRemines++
	m.stats.BufferSize = len(m.buffer)
	return nil
}

// Patterns returns the current frequent temporal patterns, normalized
// and sorted exactly as core.MineTemporal would report them for the
// accumulated database.
func (m *Miner) Patterns() []pattern.TemporalResult {
	if m.db.Len() == 0 {
		return nil
	}
	minCount := m.minCount(m.db.Len())
	raw := make([]pattern.TemporalResult, 0, len(m.buffer))
	for _, e := range m.buffer {
		if e.support >= minCount {
			raw = append(raw, pattern.TemporalResult{Pattern: e.pat, Support: e.support})
		}
	}
	return pattern.NormalizeTemporalResults(raw)
}

// Database returns the accumulated database. The caller must not modify
// it.
func (m *Miner) Database() *interval.Database { return &m.db }

// Stats returns processing counters.
func (m *Miner) Stats() IncStats { return m.stats }
