package main

import (
	"math"
	"time"
)

// latHist is a log-bucketed latency histogram: bucket i holds latencies
// in [latBase·latGrowth^i, latBase·latGrowth^(i+1)) nanoseconds, so a
// quantile is exact to 0.5% with constant memory, however many ops a run
// times (a store of raw samples would grow the harness's own heap with
// the op rate and show in rss_peak_MiB).
type latHist struct {
	counts []int64
	n      int64
}

const (
	latBase   = 100.0 // ns; faster ops land in bucket 0
	latGrowth = 1.005
)

var logGrowth = math.Log(latGrowth)

func (h *latHist) add(d time.Duration) {
	i := 0
	if ns := float64(d); ns > latBase {
		i = int(math.Log(ns/latBase) / logGrowth)
	}
	if i >= len(h.counts) {
		h.counts = append(h.counts, make([]int64, i+1-len(h.counts)+512)...)
	}
	h.counts[i]++
	h.n++
}

func (h *latHist) merge(o latHist) {
	if len(o.counts) > len(h.counts) {
		h.counts = append(h.counts, make([]int64, len(o.counts)-len(h.counts))...)
	}
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile returns the q-quantile in nanoseconds (nearest rank),
// interpolated geometrically within its bucket; 0 with no samples.
func (h *latHist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := max(int64(math.Ceil(q*float64(h.n))), 1)
	var below int64
	for i, c := range h.counts {
		if below+c >= rank {
			frac := (float64(rank-below) - 0.5) / float64(c)
			return latBase * math.Pow(latGrowth, float64(i)+frac)
		}
		below += c
	}
	return latBase * math.Pow(latGrowth, float64(len(h.counts)))
}
