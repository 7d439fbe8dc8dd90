package main

import (
	"math"
	"slices"
)

func sorted(xs []float64) []float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	return s
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func median(xs []float64) float64 {
	_, q2, _ := quartiles(xs)
	return q2
}

// quartiles returns the three cut points Python's
// statistics.quantiles(xs, n=4) gives (the default "exclusive" method),
// so spreads read the same here as in any Python check of the numbers.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		j = max(1, min(j, n-1))
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the interquartile range as a share of the median.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}

// tailMinBeyond is how many samples must lie beyond a reported tail
// percentile for it to mean anything.
const tailMinBeyond = 10

// tail returns the highest percentile up to the 99th whose nearest-rank
// sample has at least tailMinBeyond samples after it, with that sample.
// s must be sorted. Fewer than tailMinBeyond+1 samples support no tail;
// tail then reports the maximum at percentile 100.
func tail(s []float64) (pct, v float64) {
	n := len(s)
	if n == 0 {
		return 0, 0
	}
	k := int(math.Ceil(0.99*float64(n))) - 1 // nearest rank of p99
	if beyond := n - 1 - k; beyond < tailMinBeyond {
		k = n - 1 - tailMinBeyond
	}
	if k < 0 {
		k = n - 1
	}
	return 100 * float64(k+1) / float64(n), s[k]
}

// window is the sum of hypard's per-endpoint counters moved over the
// measured window.
type window struct {
	requests, fastHits, cacheHits, coalesced, computes, latencyNs int64
}

// statszDelta sums the request endpoints' counter deltas between two
// /statsz reads; the healthz and statsz probes are not traffic.
func statszDelta(before, after *statsz) window {
	var w window
	for name, a := range after.Endpoints {
		if name == "healthz" || name == "statsz" {
			continue
		}
		b := before.Endpoints[name]
		w.requests += a.Requests - b.Requests
		w.fastHits += a.FastHits - b.FastHits
		w.cacheHits += a.CacheHits - b.CacheHits
		w.coalesced += a.Coalesced - b.Coalesced
		w.computes += a.Computes - b.Computes
		w.latencyNs += a.LatencyNs - b.LatencyNs
	}
	return w
}

// share is x per window request.
func (w window) share(x int64) float64 {
	if w.requests == 0 {
		return 0
	}
	return float64(x) / float64(w.requests)
}

// handlerMeanMs is the daemon-side mean handler time.
func (w window) handlerMeanMs() float64 {
	if w.requests == 0 {
		return 0
	}
	return float64(w.latencyNs) / float64(w.requests) / 1e6
}
