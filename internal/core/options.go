// Package core implements P-TPMiner, the paper's contribution: a
// projection-based miner that discovers the two types of interval-based
// sequential patterns — temporal patterns over the endpoint
// representation and coincidence patterns over the coincidence
// representation — with pruning techniques that reduce the search space.
//
// The mining strategy is PrefixSpan-family: patterns are grown
// depth-first by S-extensions (a new element) and I-extensions (growing
// the last element), and support is counted on pseudo-projected
// databases that store only (sequence, position) pairs. Four pruning
// techniques keep the search space small; each can be disabled
// individually for the ablation study (see DESIGN.md, Fig 3):
//
//	P1 — global infrequent-endpoint pruning: one counting pass removes
//	     all items below the support threshold before mining starts.
//	P2 — pair pruning: finish endpoints whose interval is not open in
//	     the current prefix are skipped during candidate counting
//	     rather than discarded after it.
//	P3 — postfix completion pruning: a projected sequence whose suffix
//	     can no longer close every open interval is dropped from the
//	     projection; it cannot support any completable extension.
//	P4 — projection-size pruning: recursion stops as soon as a
//	     projected database is smaller than the support threshold.
package core

import (
	"fmt"
	"math"
	"time"

	"tpminer/internal/interval"
)

// Options configures a mining run. The zero value is not valid: either
// MinSupport or MinCount must be set.
type Options struct {
	// MinSupport is the relative minimum support in (0, 1]. It is
	// converted to an absolute count with ceil(MinSupport * |DB|).
	// Ignored when MinCount > 0.
	MinSupport float64

	// MinCount is the absolute minimum support (number of sequences).
	// Takes precedence over MinSupport when > 0.
	MinCount int

	// MaxElements caps the number of elements (distinct time points) in
	// a pattern. 0 means unlimited.
	MaxElements int

	// MaxIntervals caps the number of interval instances in a temporal
	// pattern. 0 means unlimited. Ignored by coincidence mining.
	MaxIntervals int

	// MaxItemsPerElement caps the number of items inside one element.
	// 0 means unlimited.
	MaxItemsPerElement int

	// MaxSpan caps the time between the first and the last matched
	// endpoint of a supporting embedding (temporal mining only).
	// Sequences whose unique embedding exceeds the span do not count
	// toward support. 0 means unlimited.
	MaxSpan interval.Time

	// MaxGap caps the time between consecutive matched elements of a
	// supporting embedding (temporal mining only; I-extensions share a
	// time point and are never gap-checked). 0 means unlimited.
	MaxGap interval.Time

	// KeepOccurrences reports temporal patterns with their raw
	// occurrence labels instead of normalizing them (see
	// pattern.Temporal.Normalize). Raw results are what the search
	// enumerates and are used by the equivalence tests.
	KeepOccurrences bool

	// MaxPatterns caps the number of patterns emitted by the search; the
	// run stops early and Stats.Truncated reports the cut. Temporal
	// results are normalized after mining, so the returned slice may be
	// smaller than the cap (never larger). 0 means unlimited.
	MaxPatterns int

	// TimeBudget is a soft wall-clock budget for the search. When it
	// runs out the miner stops and returns the patterns found so far
	// with Stats.Truncated set — no error. For a hard deadline that
	// aborts with context.DeadlineExceeded instead, use the Ctx mining
	// variants with a deadline context. 0 means unlimited.
	TimeBudget time.Duration

	// Pruning ablation switches. All prunings are enabled by default;
	// disabling any of them changes performance but never results.
	DisableGlobalPruning  bool // P1
	DisablePairPruning    bool // P2
	DisablePostfixPruning bool // P3
	DisableSizePruning    bool // P4

	// Parallel is the number of worker goroutines of the work-stealing
	// parallel DFS: workers drain a shared queue of subtree jobs and any
	// worker splits off subtrees whose projected database is large
	// enough to be worth sharing. Results are identical to a serial run.
	// 0 or 1 mines serially. Honored by all miners, including top-k.
	Parallel int

	// stealCutoff overrides the minimum projected-database size at which
	// a subtree is offered to other workers. 0 uses the built-in
	// heuristic (see stealCutoffFor). Unexported: a white-box test knob
	// to force stealing on tiny databases.
	stealCutoff int
}

// ResolveMinCount converts the options' support threshold into an
// absolute sequence count for a database of n sequences. It is exported
// so the baseline miners share the exact threshold semantics of the core
// miner.
func ResolveMinCount(o Options, n int) (int, error) {
	if err := o.validate(); err != nil {
		return 0, err
	}
	if o.MinCount > 0 {
		return o.MinCount, nil
	}
	c := int(math.Ceil(o.MinSupport * float64(n)))
	if c < 1 {
		c = 1
	}
	return c, nil
}

// validate rejects nonsensical option combinations.
func (o Options) validate() error {
	if o.MinCount < 0 {
		return fmt.Errorf("core: negative MinCount %d", o.MinCount)
	}
	// Written so that NaN, which fails every comparison, is rejected.
	if o.MinCount == 0 && !(o.MinSupport > 0 && o.MinSupport <= 1) {
		return fmt.Errorf("core: MinSupport %v outside (0,1] and no MinCount given", o.MinSupport)
	}
	if o.MaxElements < 0 || o.MaxIntervals < 0 || o.MaxItemsPerElement < 0 {
		return fmt.Errorf("core: negative pattern size limit")
	}
	if o.MaxSpan < 0 {
		return fmt.Errorf("core: negative MaxSpan %d", o.MaxSpan)
	}
	if o.MaxGap < 0 {
		return fmt.Errorf("core: negative MaxGap %d", o.MaxGap)
	}
	if o.Parallel < 0 {
		return fmt.Errorf("core: negative Parallel %d", o.Parallel)
	}
	if o.MaxPatterns < 0 {
		return fmt.Errorf("core: negative MaxPatterns %d", o.MaxPatterns)
	}
	if o.TimeBudget < 0 {
		return fmt.Errorf("core: negative TimeBudget %v", o.TimeBudget)
	}
	return nil
}
