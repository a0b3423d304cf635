package main

import (
	"math"
	"testing"
	"time"
)

// TestLatencyHistogram checks that a value read back from its bucket is
// within the histogram's stated 1.6% and that quantiles are nearest-rank.
func TestLatencyHistogram(t *testing.T) {
	for v := int64(1); v < 1<<44; v = v*3/2 + 1 {
		mid := bucketMid(bucketOf(v))
		if math.Abs(mid-float64(v)) > 0.016*float64(v)+0.5 {
			t.Fatalf("%d ns reads back as %.0f ns", v, mid)
		}
	}
	var h latHist
	for i := 1; i <= 1000; i++ {
		h.add(time.Duration(i) * time.Microsecond)
	}
	for _, c := range []struct{ q, want float64 }{{0.5, 0.5}, {0.99, 0.99}, {1, 1}} {
		if got := h.quantile(c.q); math.Abs(got-c.want) > 0.016*c.want {
			t.Errorf("quantile(%v) = %v ms, want %v ms", c.q, got, c.want)
		}
	}
}
