package main

import (
	"math"
	"slices"
	"time"
)

// samples is a set of durations, summarized by nearest-rank
// percentiles.
type samples []time.Duration

// quantile returns the nearest-rank q-quantile (0 < q <= 1): the
// smallest sample with at least q·n samples at or below it. It is 0
// for an empty set.
func (s samples) quantile(q float64) time.Duration {
	if len(s) == 0 {
		return 0
	}
	sorted := slices.Clone(s)
	slices.Sort(sorted)
	rank := int(math.Ceil(q*float64(len(sorted)))) - 1
	rank = max(0, min(rank, len(sorted)-1))
	return sorted[rank]
}

// tailChunk is the sample count per chunk for tail percentiles: the
// least that leaves ten samples above a p99.
const tailChunk = 1000

// tail returns the q-quantile of samples kept in the order they were
// taken, as the median over consecutive chunks of tailChunk samples of
// each chunk's q-quantile. One stall then moves one chunk, not the
// whole run's tail. Sets shorter than two chunks fall back to the plain
// quantile.
func (s samples) tail(q float64) time.Duration {
	chunks := len(s) / tailChunk
	if chunks < 2 {
		return s.quantile(q)
	}
	qs := make([]float64, chunks)
	for i := range qs {
		end := (i + 1) * tailChunk
		if i == chunks-1 {
			end = len(s)
		}
		qs[i] = float64(s[i*tailChunk : end].quantile(q))
	}
	return time.Duration(median(qs))
}

// calmChunk is the sample count per chunk for calm.
const calmChunk = 500

// calm returns the q-quantile of samples kept in the order they were
// taken, as the lower quartile over consecutive chunks of calmChunk
// samples of each chunk's q-quantile: the quantile of the calmer part
// of the run. On a shared host, bursts of stolen CPU time queue every
// request behind them for a while; a change to the program moves every
// chunk, a burst only some. Sets shorter than two chunks fall back to
// the plain quantile.
func (s samples) calm(q float64) time.Duration {
	chunks := len(s) / calmChunk
	if chunks < 2 {
		return s.quantile(q)
	}
	qs := make(samples, chunks)
	for i := range qs {
		end := (i + 1) * calmChunk
		if i == chunks-1 {
			end = len(s)
		}
		qs[i] = s[i*calmChunk : end].quantile(q)
	}
	return qs.quantile(0.25)
}

// micros converts a duration to fractional microseconds.
func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// median returns the middle value of xs (the mean of the two middle
// values for an even count), or 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// upperQuartile returns the nearest-rank 0.75-quantile of xs, or 0 for
// none.
func upperQuartile(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	return s[int(math.Ceil(0.75*float64(len(s))))-1]
}

// ratio is num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
