// Package tpminer is a Go implementation of P-TPMiner ("Mining temporal
// patterns in interval-based data", Chen, Peng & Lee, ICDE 2016): a
// projection-based miner that discovers two types of interval-based
// sequential patterns from databases of event-interval sequences.
//
// # Data model
//
// An event interval is a symbol active over a closed time span
// [Start, End]. A Sequence is one entity's intervals (a patient's active
// diagnoses, one utterance's gestures, ...), a Database a set of
// sequences. Pattern support counts supporting sequences.
//
// # The two pattern types
//
// A TemporalPattern captures the exact arrangement of a set of
// intervals — equivalent to all pairwise Allen relations — as an ordered
// sequence of endpoint sets ("A+ (A- B+) B-" reads: A starts; A ends
// exactly when B starts; B ends — i.e. A meets B). A CoincidencePattern
// is the coarser view: an ordered sequence of symbol sets that are
// simultaneously active ("{A} {A B} {B}").
//
// # Quick start
//
//	db := tpminer.NewDatabase(
//	    []tpminer.Interval{{Symbol: "fever", Start: 2, End: 9},
//	                       {Symbol: "infection", Start: 0, End: 14}},
//	    ...,
//	)
//	results, stats, err := tpminer.MineTemporalPatterns(db, tpminer.Options{MinSupport: 0.1})
//	for _, r := range results {
//	    fmt.Printf("%d  %s   (%s)\n", r.Support, r.Pattern, r.Pattern.RelationSummary())
//	}
//
// See the examples/ directory for complete programs and DESIGN.md for
// the algorithm, its pruning techniques, and the containment semantics.
package tpminer

import (
	"context"
	"fmt"

	"tpminer/internal/core"
	"tpminer/internal/dataio"
	"tpminer/internal/endpoint"
	"tpminer/internal/incremental"
	"tpminer/internal/interval"
	"tpminer/internal/pattern"
	"tpminer/internal/render"
	"tpminer/internal/rules"
	"tpminer/internal/window"
)

// Re-exported data-model types. See the respective internal packages for
// full method documentation; all methods are available on the aliases.
type (
	// Time is the discrete timestamp type of interval endpoints.
	Time = interval.Time
	// Interval is one event interval: Symbol active over [Start, End].
	Interval = interval.Interval
	// Sequence is one entity's ordered list of event intervals.
	Sequence = interval.Sequence
	// Database is a set of sequences; support is counted per sequence.
	Database = interval.Database
	// Relation is one of Allen's thirteen interval relations.
	Relation = interval.Relation

	// Endpoint is one end of an occurrence-indexed interval ("A+", "A-").
	Endpoint = endpoint.Endpoint

	// TemporalPattern is an arrangement pattern in endpoint
	// representation.
	TemporalPattern = pattern.Temporal
	// CoincidencePattern is an ordered sequence of co-active symbol sets.
	CoincidencePattern = pattern.Coinc
	// TemporalResult pairs a temporal pattern with its support.
	TemporalResult = pattern.TemporalResult
	// CoincidenceResult pairs a coincidence pattern with its support.
	CoincidenceResult = pattern.CoincResult

	// Options configures a mining run; set MinSupport or MinCount.
	Options = core.Options
	// Stats reports search-tree and pruning counters of a run.
	Stats = core.Stats
)

// Allen's thirteen relations, re-exported for pattern interpretation.
const (
	Before       = interval.Before
	Meets        = interval.Meets
	Overlaps     = interval.Overlaps
	Starts       = interval.Starts
	During       = interval.During
	Finishes     = interval.Finishes
	Equals       = interval.Equals
	After        = interval.After
	MetBy        = interval.MetBy
	OverlappedBy = interval.OverlappedBy
	StartedBy    = interval.StartedBy
	Contains     = interval.Contains
	FinishedBy   = interval.FinishedBy
)

// NewDatabase builds a database from bare interval slices, assigning
// sequence IDs "s0", "s1", ....
func NewDatabase(seqs ...[]Interval) *Database { return interval.NewDatabase(seqs...) }

// Relate computes the Allen relation of a with respect to b.
func Relate(a, b Interval) Relation { return interval.Relate(a, b) }

// MineTemporalPatterns discovers all frequent complete temporal patterns
// of the database with P-TPMiner. Results are normalized and sorted by
// descending support.
func MineTemporalPatterns(db *Database, opt Options) ([]TemporalResult, Stats, error) {
	return core.MineTemporal(db, opt)
}

// MineCoincidencePatterns discovers all frequent coincidence patterns of
// the database with P-TPMiner.
func MineCoincidencePatterns(db *Database, opt Options) ([]CoincidenceResult, Stats, error) {
	return core.MineCoincidence(db, opt)
}

// MineTemporalPatternsCtx is MineTemporalPatterns with cooperative
// cancellation: the search polls ctx and aborts promptly with ctx.Err()
// when it is cancelled or its deadline passes. Budget stops
// (Options.MaxPatterns, Options.TimeBudget) are not errors — they return
// the patterns found so far with Stats.Truncated set.
func MineTemporalPatternsCtx(ctx context.Context, db *Database, opt Options) ([]TemporalResult, Stats, error) {
	return core.MineTemporalCtx(ctx, db, opt)
}

// MineCoincidencePatternsCtx is the coincidence analogue of
// MineTemporalPatternsCtx.
func MineCoincidencePatternsCtx(ctx context.Context, db *Database, opt Options) ([]CoincidenceResult, Stats, error) {
	r, err := core.Mine(ctx, db, core.KindCoincidence, 0, opt)
	if err != nil {
		return nil, Stats{}, err
	}
	return r.Coinc, r.Stats, nil
}

// MineTopKTemporalPatterns returns the k best-supported temporal
// patterns, raising the support threshold dynamically during the search.
// opt.MinCount/MinSupport, when set, act as a floor.
func MineTopKTemporalPatterns(db *Database, k int, opt Options) ([]TemporalResult, Stats, error) {
	r, err := mineTopK(db, core.KindTemporal, k, opt)
	if err != nil {
		return nil, Stats{}, err
	}
	return r.Temporal, r.Stats, nil
}

// MineTopKCoincidencePatterns is the coincidence analogue of
// MineTopKTemporalPatterns.
func MineTopKCoincidencePatterns(db *Database, k int, opt Options) ([]CoincidenceResult, Stats, error) {
	r, err := mineTopK(db, core.KindCoincidence, k, opt)
	if err != nil {
		return nil, Stats{}, err
	}
	return r.Coinc, r.Stats, nil
}

// mineTopK runs a top-k core.Mine. It rejects k < 1 itself, since
// core.Mine reads k = 0 as a request for every pattern.
func mineTopK(db *Database, kind core.Kind, k int, opt Options) (*core.Result, error) {
	if k < 1 {
		return nil, fmt.Errorf("tpminer: top-k requires k >= 1, got %d", k)
	}
	return core.Mine(context.Background(), db, kind, k, opt)
}

// ClosedPatterns keeps only the closed temporal patterns of a result
// set: those with no proper super-pattern of equal support.
func ClosedPatterns(rs []TemporalResult) []TemporalResult {
	return filtered(core.Result{Temporal: rs}, "closed").Temporal
}

// MaximalPatterns keeps only the maximal temporal patterns: those with
// no proper frequent super-pattern at all.
func MaximalPatterns(rs []TemporalResult) []TemporalResult {
	return filtered(core.Result{Temporal: rs}, "maximal").Temporal
}

// ClosedCoincidencePatterns keeps only the closed coincidence patterns.
func ClosedCoincidencePatterns(rs []CoincidenceResult) []CoincidenceResult {
	return filtered(core.Result{Coinc: rs}, "closed").Coinc
}

// MaximalCoincidencePatterns keeps only the maximal coincidence
// patterns.
func MaximalCoincidencePatterns(rs []CoincidenceResult) []CoincidenceResult {
	return filtered(core.Result{Coinc: rs}, "maximal").Coinc
}

// filtered is core.Filter under a context that is never cancelled, the
// only way the filter fails.
func filtered(r core.Result, which string) core.Result {
	_ = core.Filter(context.Background(), &r, which)
	return r
}

// ParseTemporalPattern parses the textual pattern form, e.g.
// "A+ (A- B+) B-".
func ParseTemporalPattern(s string) (TemporalPattern, error) {
	return pattern.ParseTemporal(s)
}

// ParseCoincidencePattern parses the textual form, e.g. "{A B} {C}".
func ParseCoincidencePattern(s string) (CoincidencePattern, error) {
	return pattern.ParseCoinc(s)
}

// Support counts the sequences of db that contain the temporal pattern
// under the miner's occurrence-aligned semantics.
func Support(db *Database, p TemporalPattern) (int, error) {
	enc, err := pattern.EncodeDatabase(db)
	if err != nil {
		return 0, err
	}
	return pattern.SupportAligned(enc, p), nil
}

// SupportAnyBinding counts supporting sequences under the permissive
// any-binding semantics (each pattern interval may map to any
// same-symbol interval); see DESIGN.md "Duplicate-symbol semantics".
func SupportAnyBinding(db *Database, p TemporalPattern) int {
	return pattern.SupportAny(db, p)
}

// Incremental mining: maintain frequent temporal patterns over a
// growing database (see internal/incremental for the buffer technique).
type (
	// IncrementalMiner maintains frequent temporal patterns across
	// appends; create with NewIncrementalMiner.
	IncrementalMiner = incremental.Miner
	// IncrementalStats reports append/re-mine counters.
	IncrementalStats = incremental.IncStats
)

// NewIncrementalMiner creates an incremental miner with the given
// support options and buffer ratio µ in (0, 1]; smaller µ buffers more
// semi-frequent patterns and re-mines less often.
func NewIncrementalMiner(opt Options, bufferRatio float64) (*IncrementalMiner, error) {
	return incremental.NewMiner(opt, bufferRatio)
}

// Windowing: mine a single long sequence by slicing it into windows;
// support then counts windows.
type (
	// WindowConfig sizes the sliding windows (Width, Stride, Policy).
	WindowConfig = window.Config
	// WindowPolicy decides how border-crossing intervals enter windows.
	WindowPolicy = window.Policy
)

// Window border policies.
const (
	// WindowClip trims border-crossing intervals to the window.
	WindowClip = window.Clip
	// WindowWholeIfStarts keeps intervals whole iff they start inside.
	WindowWholeIfStarts = window.WholeIfStarts
	// WindowContainedOnly keeps only fully contained intervals.
	WindowContainedOnly = window.ContainedOnly
)

// SlideWindows cuts one long sequence into a database of windows.
func SlideWindows(seq Sequence, cfg WindowConfig) (*Database, error) {
	return window.Slide(seq, cfg)
}

// Temporal association rules (extension): P ⇒ Q scored by confidence
// and lift; see internal/rules.
type (
	// Rule is one derived temporal association rule.
	Rule = rules.Rule
	// RuleOptions filters derived rules (MinConfidence, MinLift,
	// MaxInstances).
	RuleOptions = rules.Options
)

// DeriveRules derives association rules from mined temporal patterns.
func DeriveRules(rs []TemporalResult, db *Database, opt RuleOptions) ([]Rule, error) {
	return rules.Derive(rs, db, opt)
}

// RenderOptions controls ASCII timeline rendering.
type RenderOptions = render.Options

// RenderSequence draws an interval sequence as an ASCII timeline.
func RenderSequence(seq Sequence, opt RenderOptions) string {
	return render.Sequence(seq, opt)
}

// RenderPattern draws a temporal pattern as an ASCII timeline over its
// element positions.
func RenderPattern(p TemporalPattern, opt RenderOptions) string {
	return render.Pattern(p, opt)
}

// ReadCSV parses the CSV interval format
// ("sequence_id,symbol,start,end", optional header).
var ReadCSV = dataio.ReadCSV

// WriteCSV writes a database in CSV interval format.
var WriteCSV = dataio.WriteCSV

// ReadLines parses the line format ("id: A[1,5] B[3,9]").
var ReadLines = dataio.ReadLines

// WriteLines writes a database in line format.
var WriteLines = dataio.WriteLines

// ReadJSON parses the JSON database format.
var ReadJSON = dataio.ReadJSON

// WriteJSON writes a database as JSON.
var WriteJSON = dataio.WriteJSON
