package main

import (
	"math"
	"math/bits"
	"time"
)

// Latencies are counted in fixed log-linear histograms rather than kept
// one by one: the benchmark's memory stays the same however long it
// runs, so it neither grows the process's RSS nor shifts the garbage
// collector's pacing under the program being measured.

// subBits sets the histogram's resolution: 2^subBits buckets per power
// of two, so a quantile read from it is within 1.6% of the exact one.
const subBits = 6

// histBuckets covers latencies up to 2^45 ns (about 10 hours).
const histBuckets = (45 - subBits) << subBits

// latHist counts latencies in ns.
type latHist struct {
	counts [histBuckets]uint32
	n      int
}

func bucketOf(ns int64) int {
	v := uint64(max(ns, 0))
	if v < 1<<subBits {
		return int(v)
	}
	e := bits.Len64(v) - subBits - 1
	i := (e+1)<<subBits + int(v>>e) - 1<<subBits
	return min(i, histBuckets-1)
}

// bucketMid is the middle of bucket i in ns.
func bucketMid(i int) float64 {
	if i < 1<<subBits {
		return float64(i)
	}
	e := i>>subBits - 1
	lower := uint64(i&(1<<subBits-1)+1<<subBits) << e
	return float64(lower) + float64(uint64(1)<<e)/2
}

func (h *latHist) add(d time.Duration) {
	h.counts[bucketOf(int64(d))]++
	h.n++
}

// quantile is the nearest-rank q-quantile in ms (NaN when empty).
func (h *latHist) quantile(q float64) float64 {
	if h.n == 0 {
		return math.NaN()
	}
	rank := max(int(math.Ceil(q*float64(h.n))), 1)
	seen := 0
	for i, c := range h.counts {
		if seen += int(c); seen >= rank {
			return bucketMid(i) / 1e6
		}
	}
	return math.NaN()
}

func (h *latHist) reset() { *h = latHist{} }

// latencyChunk is how many consecutive ops of one caller make a latency
// chunk, so the chunk's p99 has ten samples beyond it.
const latencyChunk = 1000

// chunkStats is the p50 and p99 of one chunk, in ms.
type chunkStats struct{ p50, p99 float64 }

// latencies follows one caller's ops in chunks of latencyChunk.
type latencies struct {
	cur    latHist
	chunks []chunkStats
	n      int           // ops counted
	max    time.Duration // slowest op
}

func (l *latencies) add(d time.Duration) {
	l.cur.add(d)
	l.n++
	l.max = max(l.max, d)
	if l.cur.n == latencyChunk {
		l.chunks = append(l.chunks, chunkStats{l.cur.quantile(0.5), l.cur.quantile(0.99)})
		l.cur.reset()
	}
}

// chunkedLatency returns the medians over the callers' chunks of each
// chunk's p50 and p99, in ms. A slow spell, such as a shared host
// descheduling the process, holds up the few ops in flight at the
// time; in chunks of 1000 ops those rarely reach a chunk's p99, while
// in one pool over the whole run they would set it. A run too short
// for a whole chunk uses the partial ones.
func chunkedLatency(cs []*caller) (p50, p99 float64) {
	var p50s, p99s []float64
	for _, c := range cs {
		for _, ch := range c.lat.chunks {
			p50s = append(p50s, ch.p50)
			p99s = append(p99s, ch.p99)
		}
	}
	if len(p50s) == 0 {
		for _, c := range cs {
			if c.lat.cur.n > 0 {
				p50s = append(p50s, c.lat.cur.quantile(0.5))
				p99s = append(p99s, c.lat.cur.quantile(0.99))
			}
		}
	}
	return median(p50s), median(p99s)
}
