package core

import (
	"container/heap"
	"sync"
	"sync/atomic"
)

// Top-k mining (extension beyond the two-page paper): instead of a fixed
// support threshold, mine the k best-supported complete patterns. The
// search starts from the options' threshold (or 1) and raises it
// dynamically to the running kth-best support, so low-support subtrees
// are pruned as soon as k better patterns are known.
//
// Ties at the kth support are cut deterministically by the standard
// result order (descending support, ascending size, lexicographic key).
// Top-k honors Options.Parallel: parallel workers share one topKState
// whose threshold rises monotonically toward the true kth-best support,
// so no top-k pattern is ever pruned and the final sort+truncate yields
// the same result set as a serial run.

// capResults applies both result caps to sorted results: a top-k mine
// (k > 0) keeps its k best, and MaxPatterns bounds every mine (parallel
// workers can emit a few patterns past the cap before they see the
// stop).
func capResults[R any](rs []R, k, maxPatterns int) []R {
	if k > 0 && len(rs) > k {
		rs = rs[:k]
	}
	if maxPatterns > 0 && len(rs) > maxPatterns {
		rs = rs[:maxPatterns]
	}
	return rs
}

// topKState drives dynamic threshold raising. It tracks the supports of
// the k best distinct patterns seen so far in a min-heap; once k
// patterns are known, the mining threshold rises to the heap minimum.
//
// When normalization merges occurrence labelings, several raw patterns
// map to one distinct pattern. The heap keeps the support first seen per
// distinct key; a later better labeling leaves a stale (lower) entry,
// which only makes the threshold conservative — completeness is never
// at risk.
//
// The state is shared across the workers of a parallel run: seen/heap
// updates are mutex-guarded, and the effective threshold is published
// through an atomic floor that only ever rises. Since the floor is at
// all times ≤ the true kth-best support, a worker pruning at the floor
// can never discard a top-k pattern, and the deterministic final
// sort+truncate makes parallel output identical to serial.
type topKState struct {
	k int

	mu       sync.Mutex
	seen     map[string]struct{}
	supports intMinHeap

	floor atomic.Int64 // current threshold; 0 until k patterns are known
}

// newTopKState returns the shared state of a k-best mine, or nil for a
// plain mine (k == 0).
func newTopKState(k int) *topKState {
	if k == 0 {
		return nil
	}
	// seen grows with the patterns found, not with k: a request's k is
	// untrusted and can far exceed the patterns that exist.
	return &topKState{k: k, seen: make(map[string]struct{})}
}

// threshold returns the current dynamic support threshold (0 until k
// distinct patterns have been observed). Lock-free; safe from any
// worker.
func (t *topKState) threshold() int { return int(t.floor.Load()) }

// observe records an emitted pattern's support and returns the (possibly
// raised) mining threshold for the calling worker.
func (t *topKState) observe(key string, support, minCount int) int {
	t.mu.Lock()
	if _, dup := t.seen[key]; !dup {
		t.seen[key] = struct{}{}
		if t.supports.Len() < t.k {
			heap.Push(&t.supports, support)
		} else if support > t.supports[0] {
			t.supports[0] = support
			heap.Fix(&t.supports, 0)
		}
	}
	var thr int
	if t.supports.Len() >= t.k {
		thr = t.supports[0]
	}
	t.mu.Unlock()

	if thr > 0 {
		for {
			cur := t.floor.Load()
			if int64(thr) <= cur || t.floor.CompareAndSwap(cur, int64(thr)) {
				break
			}
		}
	}
	if f := int(t.floor.Load()); f > minCount {
		return f
	}
	return minCount
}

// intMinHeap is a minimal min-heap of ints for container/heap.
type intMinHeap []int

func (h intMinHeap) Len() int            { return len(h) }
func (h intMinHeap) Less(i, j int) bool  { return h[i] < h[j] }
func (h intMinHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *intMinHeap) Push(x interface{}) { *h = append(*h, x.(int)) }
func (h *intMinHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}
