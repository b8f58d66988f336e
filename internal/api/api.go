// Package api is the wire contract of the tpmd HTTP service: the
// request shapes shared by the batch mine family and the continuous
// mining jobs, with one validation surface for both, and the error
// envelope that the server and its workers answer every failure with.
//
// MineSpec is the one request shape of the mine family: an explicit Mode
// field ("temporal", "coincidence", or "rules") selects what is mined,
// and a single Validate method checks every field. Job specs (JobSpec)
// embed the exact same struct, so batch and continuous mining share one
// options surface by construction.
//
// The package is deliberately free of HTTP: it depends only on
// internal/core (to convert a spec into miner options), so the jobs
// subsystem and any future transport can share it without importing the
// server.
package api

import (
	"fmt"
	"time"

	"tpminer/internal/core"
)

// Mining modes accepted by MineSpec.Mode.
const (
	ModeTemporal    = "temporal"
	ModeCoincidence = "coincidence"
	ModeRules       = "rules"
)

// Window kinds accepted by WindowSpec.Kind.
const (
	WindowAll      = "all"
	WindowSliding  = "sliding"
	WindowTumbling = "tumbling"
)

// FieldError is an error attributable to one JSON request field; the
// server's error envelope surfaces the name in error.field.
type FieldError struct {
	Field string
	Msg   string
}

func (e *FieldError) Error() string { return e.Msg }

// fieldErrf builds a FieldError with a formatted message.
func fieldErrf(field, format string, args ...any) *FieldError {
	return &FieldError{Field: field, Msg: fmt.Sprintf(format, args...)}
}

// ErrorDetail is the error object of the uniform JSON error envelope.
type ErrorDetail struct {
	// Code is a stable, machine-readable error class. The server uses
	// invalid_request (400), not_found (404), conflict (409),
	// payload_too_large (413), unsupported_media_type (415),
	// rate_limited (429), internal and persist_unavailable (500),
	// degraded and shutting_down (503), and deadline_exceeded (504). A
	// worker (tpmd -role=worker) uses invalid_request and
	// invalid_shard_payload (400), shard_not_loaded (404), mine_failed
	// (400 or 503) and mine_timeout (504).
	Code string `json:"code"`
	// Message is the human-readable description.
	Message string `json:"message"`
	// Field names the offending JSON request field on validation errors.
	Field string `json:"field,omitempty"`
}

// ErrorEnvelope is the body of every non-2xx JSON response, on every
// route of the server and of a worker.
type ErrorEnvelope struct {
	Error     ErrorDetail `json:"error"`
	RequestID string      `json:"request_id,omitempty"`
}

// MiningOptions is the option block shared by every mining mode. It is
// embedded, so the wire format stays flat.
type MiningOptions struct {
	// MinSupport in (0,1], or MinCount >= 1 (one required).
	MinSupport float64 `json:"min_support,omitempty"`
	MinCount   int     `json:"min_count,omitempty"`
	// MaxIntervals caps pattern size in intervals (not in coincidence
	// mode, whose patterns have no interval instances).
	MaxIntervals int `json:"max_intervals,omitempty"`
	// TimeoutMillis lowers the server's hard deadline for this job (it
	// can never raise it); hitting the deadline aborts with 504.
	TimeoutMillis int64 `json:"timeout_ms,omitempty"`
}

// validate rejects malformed shared options, naming the offending JSON
// field.
func (o MiningOptions) validate() error {
	if o.MinSupport < 0 || o.MinSupport > 1 {
		return fieldErrf("min_support", "min_support %v outside [0,1]", o.MinSupport)
	}
	for _, f := range []struct {
		name string
		v    int64
	}{
		{"min_count", int64(o.MinCount)},
		{"max_intervals", int64(o.MaxIntervals)},
		{"timeout_ms", o.TimeoutMillis},
	} {
		if f.v < 0 {
			return fieldErrf(f.name, "%s must not be negative, got %d", f.name, f.v)
		}
	}
	return nil
}

// WindowSpec selects the slice of a dataset a mine runs over. The zero
// value (or Kind "all") mines the whole dataset. "sliding" mines the
// most recent Count sequences; "tumbling" groups the dataset into
// consecutive blocks of Count sequences and mines the newest complete
// block. Windows are what make continuous jobs incremental — each
// re-mine sees a bounded slice of the stream — but they are equally
// valid on batch requests, and a batch mine with the same window,
// options, and dataset version returns byte-identical patterns.
type WindowSpec struct {
	Kind  string `json:"kind,omitempty"`
	Count int    `json:"count,omitempty"`
}

// Windowed reports whether the spec selects a proper subset of the
// dataset (as opposed to whole-dataset mining).
func (w WindowSpec) Windowed() bool {
	return w.Kind == WindowSliding || w.Kind == WindowTumbling
}

// Validate rejects malformed window specs.
func (w WindowSpec) Validate() error {
	switch w.Kind {
	case "", WindowAll:
		if w.Count != 0 {
			return fieldErrf("window.count", "window.count is only valid with kind sliding or tumbling")
		}
	case WindowSliding, WindowTumbling:
		if w.Count <= 0 {
			return fieldErrf("window.count", "window.count must be >= 1 for %s windows, got %d", w.Kind, w.Count)
		}
	default:
		return fieldErrf("window.kind", "unknown window kind %q (want all, sliding, or tumbling)", w.Kind)
	}
	return nil
}

// key canonicalizes the window for cache-key/ETag strings: "" for
// whole-dataset, "<kind>:<count>" otherwise.
func (w WindowSpec) key() string {
	if !w.Windowed() {
		return ""
	}
	return fmt.Sprintf("%s:%d", w.Kind, w.Count)
}

// MineSpec is the one request shape of the mine family: the body of
// POST /v1/datasets/{name}/mine and the mining half of a job spec. Mode
// selects what is mined; fields that only apply to one mode are
// rejected in the others.
type MineSpec struct {
	// Mode is "temporal" (default), "coincidence", or "rules".
	Mode string `json:"mode,omitempty"`

	MiningOptions

	// Window bounds the mine to a slice of the dataset; see WindowSpec.
	Window WindowSpec `json:"window,omitzero"`

	// Pattern-shape constraints and modes (temporal/coincidence only;
	// max_span and max_gap, like max_intervals, are temporal-only).
	MaxElements        int    `json:"max_elements,omitempty"`
	MaxItemsPerElement int    `json:"max_items_per_element,omitempty"`
	MaxSpan            int64  `json:"max_span,omitempty"`
	MaxGap             int64  `json:"max_gap,omitempty"`
	TopK               int    `json:"top_k,omitempty"`
	Filter             string `json:"filter,omitempty"` // "", "closed", "maximal"

	// Soft budgets: the miner stops early and returns what it found,
	// flagged in stats. Truncated results are never cached.
	TimeBudgetMillis int64 `json:"time_budget_ms,omitempty"`
	MaxPatterns      int   `json:"max_patterns,omitempty"`

	// Parallel requests worker goroutines for the search, capped at the
	// server's MaxParallel ceiling. Absent or 0 mines serially.
	Parallel int `json:"parallel,omitempty"`

	// Rule thresholds (rules mode only).
	MinConfidence float64 `json:"min_confidence,omitempty"`
	MinLift       float64 `json:"min_lift,omitempty"`
}

// mode returns the spec's mode, defaulting to temporal.
func (req MineSpec) mode() string {
	if req.Mode == "" {
		return ModeTemporal
	}
	return req.Mode
}

// Validate rejects malformed requests up front — before a mining slot
// is claimed — so garbage input can never occupy a slot or flow into
// core.Options unchecked. This is the single validation surface of the
// whole mine family: batch temporal/coincidence, batch rules, and job
// specs all pass through it. Each violation names the offending JSON
// field.
func (req MineSpec) Validate() error {
	if err := req.MiningOptions.validate(); err != nil {
		return err
	}
	mode := req.mode()
	switch mode {
	case ModeTemporal, ModeCoincidence, ModeRules:
	default:
		return fieldErrf("mode", "unknown mode %q (want temporal, coincidence, or rules)", mode)
	}
	if err := req.Window.Validate(); err != nil {
		return err
	}
	switch req.Filter {
	case "", "closed", "maximal":
	default:
		return fieldErrf("filter", "unknown filter %q", req.Filter)
	}
	for _, f := range []struct {
		name string
		v    int64
	}{
		{"max_elements", int64(req.MaxElements)},
		{"max_items_per_element", int64(req.MaxItemsPerElement)},
		{"max_span", req.MaxSpan},
		{"max_gap", req.MaxGap},
		{"top_k", int64(req.TopK)},
		{"time_budget_ms", req.TimeBudgetMillis},
		{"max_patterns", int64(req.MaxPatterns)},
		{"parallel", int64(req.Parallel)},
	} {
		if f.v < 0 {
			return fieldErrf(f.name, "%s must not be negative, got %d", f.name, f.v)
		}
	}
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"min_confidence", req.MinConfidence},
		{"min_lift", req.MinLift},
	} {
		if f.v < 0 {
			return fieldErrf(f.name, "%s must not be negative, got %v", f.name, f.v)
		}
	}
	// Mode-foreign fields are rejected rather than silently ignored.
	type field struct {
		name string
		set  bool
	}
	var foreign []field
	switch mode {
	case ModeRules:
		foreign = []field{
			{"max_elements", req.MaxElements != 0},
			{"max_items_per_element", req.MaxItemsPerElement != 0},
			{"max_span", req.MaxSpan != 0},
			{"max_gap", req.MaxGap != 0},
			{"top_k", req.TopK != 0},
			{"filter", req.Filter != ""},
			{"time_budget_ms", req.TimeBudgetMillis != 0},
			{"max_patterns", req.MaxPatterns != 0},
			{"parallel", req.Parallel != 0},
		}
	case ModeCoincidence:
		// The coincidence miner honours none of the temporal-only
		// constraints.
		foreign = []field{
			{"max_intervals", req.MaxIntervals != 0},
			{"max_span", req.MaxSpan != 0},
			{"max_gap", req.MaxGap != 0},
		}
	}
	for _, f := range foreign {
		if f.set {
			return fieldErrf(f.name, "%s does not apply to %s mode", f.name, mode)
		}
	}
	if mode != ModeRules && (req.MinConfidence != 0 || req.MinLift != 0) {
		field := "min_confidence"
		if req.MinConfidence == 0 {
			field = "min_lift"
		}
		return fieldErrf(field, "%s only applies to rules mode", field)
	}
	return nil
}

// ResultOptions canonicalizes the result-determining options into the
// cache-key/ETag string. Execution knobs — timeout_ms, time_budget_ms,
// parallel — are deliberately excluded: they change how long the search
// may run, never what a complete run returns (parallel runs are
// result-equivalent, and truncated runs are never cached), so requests
// differing only in those share one stored entry. They do not share a
// run: ExecOptions keys the flight. max_patterns is included
// because a complete run under a cap is only known equivalent to an
// uncapped one at the same cap. The window is included: a windowed mine
// is a different result than a whole-dataset one at the same version.
func (req MineSpec) ResultOptions() string {
	mode := req.mode()
	if mode == ModeRules {
		return fmt.Sprintf("rules|sup=%v|cnt=%d|ivs=%d|conf=%v|lift=%v|win=%s",
			req.MinSupport, req.MinCount, req.MaxIntervals, req.MinConfidence,
			req.MinLift, req.Window.key())
	}
	return fmt.Sprintf("mine|type=%s|sup=%v|cnt=%d|ivs=%d|els=%d|ipe=%d|span=%d|gap=%d|topk=%d|filter=%s|maxpat=%d|win=%s",
		mode, req.MinSupport, req.MinCount, req.MaxIntervals, req.MaxElements,
		req.MaxItemsPerElement, req.MaxSpan, req.MaxGap, req.TopK, req.Filter,
		req.MaxPatterns, req.Window.key())
}

// ExecOptions canonicalizes the execution knobs ResultOptions leaves
// out. A mine joins a concurrent identical run only when these match
// too, so no request inherits another's deadline, budget or parallelism.
func (req MineSpec) ExecOptions() string {
	return fmt.Sprintf("timeout=%d|budget=%d|par=%d", req.TimeoutMillis, req.TimeBudgetMillis, req.Parallel)
}

// Options converts the spec to miner options, capping the requested
// parallelism at the server ceiling.
func (req MineSpec) Options(maxParallel int) core.Options {
	par := req.Parallel
	if par > maxParallel {
		par = maxParallel
	}
	return core.Options{
		Parallel:           par,
		MinSupport:         req.MinSupport,
		MinCount:           req.MinCount,
		MaxIntervals:       req.MaxIntervals,
		MaxElements:        req.MaxElements,
		MaxItemsPerElement: req.MaxItemsPerElement,
		MaxSpan:            req.MaxSpan,
		MaxGap:             req.MaxGap,
		MaxPatterns:        req.MaxPatterns,
		TimeBudget:         time.Duration(req.TimeBudgetMillis) * time.Millisecond,
	}
}

// JobSpec is the body of POST /v1/jobs: a continuous mining job that
// watches a dataset and re-mines Mine (the exact batch MineSpec, window
// included) whenever the dataset's version changes, publishing pattern
// deltas between consecutive runs.
type JobSpec struct {
	// ID names the job. Client-chosen like a dataset name; the server
	// generates one when empty.
	ID string `json:"id,omitempty"`
	// Dataset is the watched dataset. It does not need to exist yet: a
	// job may be created ahead of its stream, and the first mutation
	// triggers the first run.
	Dataset string `json:"dataset"`
	// Mine is the mining request run on every change — the same struct,
	// same validation, and same result bytes as a batch
	// POST /v1/datasets/{dataset}/mine with this body.
	Mine MineSpec `json:"mine"`
	// DebounceMillis coalesces bursts: after a change notification the
	// job waits this long for further changes before re-mining. 0 means
	// the server default.
	DebounceMillis int64 `json:"debounce_ms,omitempty"`
}

// Validate rejects malformed job specs. Rules mode is not yet runnable
// continuously (rule deltas are undefined while confidence changes are
// not part of the delta contract), so it is rejected here — the one
// place job validation is allowed to be stricter than batch validation.
func (js JobSpec) Validate() error {
	if js.Dataset == "" {
		return fieldErrf("dataset", "dataset must not be empty")
	}
	if err := validateName("id", js.ID); err != nil {
		return err
	}
	if js.DebounceMillis < 0 {
		return fieldErrf("debounce_ms", "debounce_ms must not be negative, got %d", js.DebounceMillis)
	}
	if err := js.Mine.Validate(); err != nil {
		return err
	}
	if js.Mine.Mode == ModeRules {
		return fieldErrf("mine.mode", "continuous jobs support temporal and coincidence modes only")
	}
	return nil
}

// validateName bounds client-chosen identifiers to a filesystem- and
// URL-safe alphabet. Empty is allowed (the server generates an ID).
func validateName(field, s string) error {
	if len(s) > 128 {
		return fieldErrf(field, "%s longer than 128 bytes", field)
	}
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '-', r == '_', r == '.':
		default:
			return fieldErrf(field, "%s contains %q; allowed: letters, digits, '-', '_', '.'", field, r)
		}
	}
	return nil
}
