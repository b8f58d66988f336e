// Package cache memoizes mining results. P-TPMiner is deterministic for
// a fixed (database, options) pair, so a mine over an unchanged dataset
// is perfectly reusable: the cache stores complete results keyed by
// (dataset name, monotonic dataset version, canonicalized options) and
// serves repeats without touching the miner. Invalidation is exact, not
// TTL-guessed — every mutation of a dataset bumps its version, which
// changes the key, so a stale entry can never be served (it simply ages
// out of the LRU).
//
// Two mechanisms share the package:
//
//   - A byte-budgeted LRU: entries carry their resident size as the
//     caller reports it; inserting past the budget evicts from the cold
//     end. An entry larger than the whole budget is not admitted at all.
//   - A single-flight group: N concurrent Do calls for the same key,
//     execution knobs included, collapse into one compute whose result
//     fans out to all waiters. Under a thundering herd of identical
//     requests exactly one miner run executes.
//
// The caller decides cacheability per result (compute returns a
// cacheable flag): truncated or otherwise non-deterministic results must
// never be stored, only fanned out to the waiters of that one flight.
package cache

import (
	"container/list"
	"context"
	"errors"
	"sync"

	"tpminer/internal/obs"
)

// Outcome says how a Do call was served.
type Outcome string

const (
	// Hit: the result was already cached.
	Hit Outcome = "hit"
	// Miss: this call ran the compute.
	Miss Outcome = "miss"
	// Coalesced: another in-flight call for the same key ran the
	// compute; this call waited and shares its result.
	Coalesced Outcome = "coalesced"
)

// ErrComputeAborted is delivered to coalesced waiters when the leader's
// compute panicked before producing a result. The leader itself sees the
// panic; waiters see this error and may retry.
var ErrComputeAborted = errors.New("cache: compute aborted by panic")

// Metrics holds the cache's tpmd_cache_* handles. The cache bumps them
// directly, and NewMetrics documents each in its HELP text.
type Metrics struct {
	Hits      *obs.Counter
	Misses    *obs.Counter
	Coalesced *obs.Counter
	Evictions *obs.Counter
	Resident  *obs.Gauge
}

// NewMetrics registers the cache's families on reg.
func NewMetrics(reg *obs.Registry) *Metrics {
	return &Metrics{
		Hits: reg.NewCounter("tpmd_cache_hits_total",
			"Mine/rules requests served from the result cache."),
		Misses: reg.NewCounter("tpmd_cache_misses_total",
			"Mine/rules requests that ran the miner (cache miss)."),
		Coalesced: reg.NewCounter("tpmd_cache_coalesced_total",
			"Mine/rules requests that shared a concurrent identical run via single-flight."),
		Evictions: reg.NewCounter("tpmd_cache_evictions_total",
			"Result-cache entries evicted to stay within the byte budget."),
		Resident: reg.NewGauge("tpmd_cache_resident_bytes",
			"Approximate bytes of mine/rules results currently cached."),
	}
}

// Key identifies one memoizable result and the run that computes it.
// Options must be a canonical encoding of every result-determining
// option and nothing else: requests that differ only in Exec share a
// stored entry. Exec encodes the execution knobs (deadline, soft time
// budget, parallelism), which decide whether a run completes in time:
// a flight is shared only by callers whose whole key matches, so no
// caller waits on a run under another's deadline.
type Key struct {
	Dataset string
	Version uint64
	Options string
	Exec    string
}

// entryOverhead approximates the per-entry bookkeeping cost (key
// strings, list element, map slot) added to the caller-reported size.
const entryOverhead = 128

type entry struct {
	key  Key
	val  any
	size int64
}

// flight is one in-progress compute; waiters block on done.
type flight struct {
	done chan struct{}
	val  any
	err  error
}

// Cache is a byte-budgeted LRU result cache fronted by a single-flight
// group. All methods are safe for concurrent use.
type Cache struct {
	budget int64
	met    *Metrics

	mu       sync.Mutex
	ll       *list.List            // front = most recently used
	items    map[Key]*list.Element // element value: *entry
	flights  map[Key]*flight
	resident int64
}

// New creates a cache holding at most budget bytes of results (plus a
// small constant per entry). A nil met counts on a private registry.
func New(budget int64, met *Metrics) *Cache {
	if met == nil {
		met = NewMetrics(obs.NewRegistry())
	}
	return &Cache{
		budget:  budget,
		met:     met,
		ll:      list.New(),
		items:   make(map[Key]*list.Element),
		flights: make(map[Key]*flight),
	}
}

// Get returns the cached value for key, if present, marking it recently
// used. It does not join or start a flight.
func (c *Cache) Get(key Key) (any, bool) {
	key.Exec = ""
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*entry).val, true
}

// Do returns the value for key, computing it at most once across all
// concurrent callers:
//
//   - cached under key's result part (Exec ignored) → (value, Hit, nil)
//     immediately;
//   - another call is already computing the whole key → block until it
//     finishes (or ctx is done) and share its value and error, outcome
//     Coalesced;
//   - otherwise run compute, fan the result out to any waiters that
//     arrived meanwhile, and — iff err is nil and cacheable is true —
//     store it under key's result part, evicting cold entries past the
//     byte budget.
//
// compute reports the value, its resident size in bytes, whether it may
// be cached, and an error. Compute errors are returned to every caller
// of the flight but never cached. ctx only bounds the wait of a
// coalesced caller; the leader's compute governs its own lifetime.
func (c *Cache) Do(ctx context.Context, key Key, compute func() (val any, size int64, cacheable bool, err error)) (any, Outcome, error) {
	stored := key
	stored.Exec = ""
	c.mu.Lock()
	if el, ok := c.items[stored]; ok {
		c.ll.MoveToFront(el)
		val := el.Value.(*entry).val
		c.mu.Unlock()
		c.met.Hits.Inc()
		return val, Hit, nil
	}
	if f, ok := c.flights[key]; ok {
		c.mu.Unlock()
		c.met.Coalesced.Inc()
		select {
		case <-f.done:
			return f.val, Coalesced, f.err
		case <-ctx.Done():
			return nil, Coalesced, ctx.Err()
		}
	}
	f := &flight{done: make(chan struct{})}
	c.flights[key] = f
	c.mu.Unlock()
	c.met.Misses.Inc()

	finished := false
	defer func() {
		if finished {
			return
		}
		// compute panicked: release the flight so waiters don't hang and
		// future calls can retry, then let the panic continue.
		c.mu.Lock()
		delete(c.flights, key)
		c.mu.Unlock()
		f.err = ErrComputeAborted
		close(f.done)
	}()
	val, size, cacheable, err := compute()
	finished = true

	c.mu.Lock()
	delete(c.flights, key)
	if err == nil && cacheable {
		c.insertLocked(stored, val, size+entryOverhead)
	}
	c.mu.Unlock()

	f.val, f.err = val, err
	close(f.done)
	return val, Miss, err
}

// insertLocked stores (key, val) at the hot end and evicts from the cold
// end until the budget holds. Oversized values are not admitted.
func (c *Cache) insertLocked(key Key, val any, size int64) {
	if size > c.budget {
		return
	}
	if el, ok := c.items[key]; ok {
		e := el.Value.(*entry)
		c.resident += size - e.size
		e.val, e.size = val, size
		c.ll.MoveToFront(el)
	} else {
		c.items[key] = c.ll.PushFront(&entry{key: key, val: val, size: size})
		c.resident += size
	}
	for c.resident > c.budget {
		cold := c.ll.Back()
		if cold == nil {
			break
		}
		c.removeLocked(cold)
		c.met.Evictions.Inc()
	}
	c.met.Resident.Set(c.resident)
}

func (c *Cache) removeLocked(el *list.Element) {
	e := el.Value.(*entry)
	c.ll.Remove(el)
	delete(c.items, e.key)
	c.resident -= e.size
}

// InvalidateDataset drops every cached entry for the named dataset,
// regardless of version, and returns how many were dropped. Version-
// keyed entries are already unreachable after a version bump; eager
// invalidation just returns their bytes to the budget immediately.
func (c *Cache) InvalidateDataset(name string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for el := c.ll.Front(); el != nil; {
		next := el.Next()
		if el.Value.(*entry).key.Dataset == name {
			c.removeLocked(el)
			n++
		}
		el = next
	}
	if n > 0 {
		c.met.Resident.Set(c.resident)
	}
	return n
}

// Len returns the number of cached entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// ResidentBytes returns the bytes held by cached entries: the sizes their
// computes reported plus the fixed per-entry overhead.
func (c *Cache) ResidentBytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.resident
}
