package pattern

import "sort"

// Pattern is what a mining result holds: a Temporal or a Coinc pattern.
type Pattern interface {
	// Size is the pattern's item count, the result order's second key.
	Size() int
	// Key is the pattern's canonical string, its identity in result sets.
	Key() string
}

// Result pairs a pattern with its support count.
type Result[P Pattern] struct {
	Pattern P
	Support int
}

// TemporalResult pairs a temporal pattern with its support count.
type TemporalResult = Result[Temporal]

// CoincResult pairs a coincidence pattern with its support count.
type CoincResult = Result[Coinc]

// resultOrder is the precomputed sort rank of one result. Size and Key
// are not free (Key allocates), so SortResults computes both once per
// result instead of once per comparison.
type resultOrder struct {
	support, size int
	key           string
}

func (a resultOrder) less(b resultOrder) bool {
	if a.support != b.support {
		return a.support > b.support
	}
	if a.size != b.size {
		return a.size < b.size
	}
	return a.key < b.key
}

// SortResults orders results deterministically, in place: descending
// support, then ascending size, then lexicographic key. All miners sort
// their output this way so result sets compare element-wise. It returns
// rs.
func SortResults[P Pattern](rs []Result[P]) []Result[P] {
	if len(rs) < 2 {
		return rs
	}
	ks := make([]resultOrder, len(rs))
	for i := range rs {
		ks[i] = resultOrder{rs[i].Support, rs[i].Pattern.Size(), rs[i].Pattern.Key()}
	}
	sort.Sort(&resultSorter[P]{rs, ks})
	return rs
}

type resultSorter[P Pattern] struct {
	rs []Result[P]
	ks []resultOrder
}

func (s *resultSorter[P]) Len() int           { return len(s.rs) }
func (s *resultSorter[P]) Less(i, j int) bool { return s.ks[i].less(s.ks[j]) }
func (s *resultSorter[P]) Swap(i, j int) {
	s.rs[i], s.rs[j] = s.rs[j], s.rs[i]
	s.ks[i], s.ks[j] = s.ks[j], s.ks[i]
}

// NormalizeTemporalResults canonicalizes every pattern (dropping
// occurrence labels, see Temporal.Normalize) and merges duplicates,
// keeping the maximum support. The result is sorted.
func NormalizeTemporalResults(rs []TemporalResult) []TemporalResult {
	out := make([]TemporalResult, len(rs))
	for i, r := range rs {
		out[i] = TemporalResult{Pattern: r.Pattern.Normalize(), Support: r.Support}
	}
	return MergeResults(out)
}

// MergeResults merges results whose patterns share a key, keeping the
// maximum support, and sorts them as SortResults does. It computes each
// pattern's key once and reuses rs's array: the merged, sorted results
// are a prefix of it, which it returns.
func MergeResults[P Pattern](rs []Result[P]) []Result[P] {
	at := make(map[string]int, len(rs))
	ks := make([]resultOrder, 0, len(rs))
	out := rs[:0]
	for _, r := range rs {
		k := r.Pattern.Key()
		if i, ok := at[k]; ok {
			if r.Support > out[i].Support {
				out[i].Support = r.Support
				ks[i].support = r.Support
			}
			continue
		}
		at[k] = len(out)
		out = append(out, r)
		ks = append(ks, resultOrder{r.Support, r.Pattern.Size(), k})
	}
	sort.Sort(&resultSorter[P]{out, ks})
	return out
}

// ResultsEqual reports whether two result sets are identical: the same
// patterns with the same supports, in any order.
func ResultsEqual[P Pattern](a, b []Result[P]) bool {
	if len(a) != len(b) {
		return false
	}
	am := make(map[string]int, len(a))
	for _, r := range a {
		am[r.Pattern.Key()] = r.Support
	}
	for _, r := range b {
		if sup, ok := am[r.Pattern.Key()]; !ok || sup != r.Support {
			return false
		}
	}
	return true
}
