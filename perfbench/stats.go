package main

import (
	"math/bits"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// hist is a log-linear histogram of non-negative int64 samples
// (nanoseconds, wall or virtual). Values below 2*histSub land in exact
// buckets; above, every power of two splits into histSub buckets, a
// relative width under 0.4%. Quantiles interpolate by rank inside a
// bucket. It never allocates after creation, so recording into it does
// not disturb the allocation metrics it sits beside.
type hist struct {
	counts   [histBuckets]uint32
	n        int64
	min, max int64
}

const (
	histSubBits = 8
	histSub     = 1 << histSubBits
	histBuckets = (64 - histSubBits + 1) * histSub
)

func newHist() *hist { return &hist{min: -1} }

func (h *hist) reset() { *h = hist{min: -1} }

func histIndex(v int64) int {
	if v < 2*histSub {
		return int(v)
	}
	e := bits.Len64(uint64(v)) - histSubBits - 1
	return e*histSub + int(v>>e)
}

// histBounds reports bucket idx's lowest value and width.
func histBounds(idx int) (lo, width int64) {
	e := idx>>histSubBits - 1
	if e < 0 {
		e = 0
	}
	return int64(idx-e*histSub) << e, int64(1) << e
}

func (h *hist) add(v int64) {
	if v < 0 {
		v = 0
	}
	h.counts[histIndex(v)]++
	h.n++
	if h.min < 0 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
}

func (h *hist) merge(o *hist) {
	if o.n == 0 {
		return
	}
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	if h.min < 0 || o.min < h.min {
		h.min = o.min
	}
	if o.max > h.max {
		h.max = o.max
	}
}

// quantile estimates the q-quantile (0..1) by linear rank, the same
// convention as numpy's default: rank q*(n-1) among the sorted samples.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n-1)
	var seen int64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if float64(seen+int64(c)) > rank {
			lo, w := histBounds(i)
			pos := (rank - float64(seen) + 0.5) / float64(c)
			v := float64(lo) + pos*float64(w)
			return clamp(v, float64(h.min), float64(h.max))
		}
		seen += int64(c)
	}
	return float64(h.max)
}

// beyond reports how many samples lie above the q-quantile's rank: the
// sample support of a tail percentile.
func (h *hist) beyond(q float64) int64 {
	return h.n - 1 - int64(q*float64(h.n-1))
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// liveHeap collects garbage and reports the bytes of heap objects still
// reachable. Two cycles, so objects freed by finalizers of the first are
// gone too.
func liveHeap() int64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

func medianDur(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
