package main

import (
	"math"
	"sort"
)

// percentile returns the q-quantile (0 <= q <= 1) of xs, interpolating
// linearly between the two closest ranks. xs need not be sorted; it is
// not modified. An empty slice yields 0.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

// median is the 0.5-quantile of xs.
func median(xs []float64) float64 { return percentile(xs, 0.5) }

// quartiles returns the first quartile, median and third quartile of xs
// by the definition of Python's statistics.quantiles(xs, n=4) (its
// default "exclusive" method), so a steadiness report here agrees with
// one computed from the same values there. Fewer than two values give
// the single value (or 0) three times.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	switch len(s) {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	m := len(s) + 1
	cut := func(i int) float64 {
		j := min(max(i*m/4, 1), len(s)-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the interquartile distance of xs as a share of its median,
// the steadiness figure the benchmark's bounds are checked against.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		if q3 == q1 {
			return 0
		}
		return math.Inf(1)
	}
	return (q3 - q1) / math.Abs(q2)
}

// selfTime returns how much of [start, end) no child interval covers:
// a span's duration minus the union of its children, clipped to the
// span, so overlapping children (concurrent shard calls) count once.
func selfTime(start, end int64, children [][2]int64) int64 {
	if end <= start {
		return 0
	}
	cs := make([][2]int64, 0, len(children))
	for _, c := range children {
		lo, hi := max(c[0], start), min(c[1], end)
		if hi > lo {
			cs = append(cs, [2]int64{lo, hi})
		}
	}
	sort.Slice(cs, func(i, j int) bool { return cs[i][0] < cs[j][0] })
	var covered int64
	curLo, curHi := int64(0), int64(-1)
	for _, c := range cs {
		if c[0] > curHi {
			if curHi > curLo {
				covered += curHi - curLo
			}
			curLo, curHi = c[0], c[1]
			continue
		}
		curHi = max(curHi, c[1])
	}
	if curHi > curLo {
		covered += curHi - curLo
	}
	return end - start - covered
}
