package obs

import (
	"fmt"
	"io"
	"math/bits"
	"sync/atomic"
	"time"
)

// The histogram is log-bucketed with log-linear sub-buckets (the
// HDR-histogram layout): each power-of-two octave of nanoseconds splits
// into 4 linear sub-buckets, giving ~19% worst-case relative error on
// quantiles at a fixed 93-counter footprint. The tracked range is
// 2^histMinPow ns (~1µs) to 2^histMaxPow ns (~8.6s); faster observations
// land in the first bucket, slower ones in the overflow bucket.
const (
	histMinPow = 10
	histMaxPow = 33
	subBits    = 2
	numSub     = 1 << subBits
	numBuckets = (histMaxPow-histMinPow)*numSub + 1 // + overflow
)

// Histogram is a lock-free latency histogram. The zero value is ready to
// use; it must not be copied after first use (hold it by pointer or
// embed it in a heap-allocated struct).
type Histogram struct {
	buckets [numBuckets]atomic.Uint64
	sumNs   atomic.Int64
	count   atomic.Uint64
}

// bucketIndex maps a nanosecond duration to its bucket.
func bucketIndex(ns int64) int {
	if ns < 1<<histMinPow {
		return 0
	}
	o := bits.Len64(uint64(ns)) - 1 // floor(log2 ns)
	if o >= histMaxPow {
		return numBuckets - 1
	}
	sub := int(ns>>(uint(o)-subBits)) & (numSub - 1)
	return (o-histMinPow)*numSub + sub
}

// bucketUpperNs is the exclusive upper bound of a bucket; every value
// the bucket holds is strictly below it, so rendering it as a
// Prometheus `le` keeps cumulative counts valid.
func bucketUpperNs(idx int) int64 {
	if idx >= numBuckets-1 {
		// Overflow: one octave past the tracked range, so quantiles
		// that land here report a finite (if saturated) value.
		return int64(1) << (histMaxPow + 1)
	}
	o := histMinPow + idx/numSub
	sub := idx % numSub
	return int64(numSub+sub+1) << (uint(o) - subBits)
}

// Observe records one duration. Negative durations count as zero.
func (h *Histogram) Observe(d time.Duration) {
	ns := d.Nanoseconds()
	if ns < 0 {
		ns = 0
	}
	h.buckets[bucketIndex(ns)].Add(1)
	h.sumNs.Add(ns)
	h.count.Add(1)
}

// Snapshot returns a point-in-time copy. Concurrent Observes may land
// between the bucket reads; the skew is at most the handful of
// in-flight observations, which quantile extraction tolerates.
func (h *Histogram) Snapshot() Snapshot {
	var s Snapshot
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
	}
	s.SumNs = h.sumNs.Load()
	s.Count = h.count.Load()
	return s
}

// Snapshot is an immutable copy of a Histogram, the unit of quantile
// extraction and Prometheus rendering.
type Snapshot struct {
	Buckets [numBuckets]uint64
	SumNs   int64
	Count   uint64
}

// Quantile returns the q-quantile (q in [0,1]) by linear interpolation
// inside the holding bucket. Empty histograms return 0.
func (s Snapshot) Quantile(q float64) time.Duration {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count)
	var cum float64
	for i, c := range s.Buckets {
		if c == 0 {
			continue
		}
		next := cum + float64(c)
		if next >= rank {
			lower := int64(0)
			if i > 0 {
				lower = bucketUpperNs(i - 1)
			}
			upper := bucketUpperNs(i)
			frac := (rank - cum) / float64(c)
			return time.Duration(float64(lower) + frac*float64(upper-lower))
		}
		cum = next
	}
	return time.Duration(bucketUpperNs(numBuckets - 1))
}

// P50, P95 and P99 are the quantiles the reports table.
func (s Snapshot) P50() time.Duration { return s.Quantile(0.50) }
func (s Snapshot) P95() time.Duration { return s.Quantile(0.95) }
func (s Snapshot) P99() time.Duration { return s.Quantile(0.99) }

// WriteHistogramHead emits the HELP/TYPE header of a histogram family.
// Emit it once per family, then one WritePrometheus per labeled series.
func WriteHistogramHead(w io.Writer, family, help string) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n", family, help, family)
}

// WritePrometheus emits one series' _bucket/_sum/_count sample lines in
// Prometheus text exposition format. labels is the rendered label set
// without braces (e.g. `model="DSCNN-S"`), empty for an unlabeled
// series. Buckets are rendered cumulatively at octave resolution (every
// power-of-two bound plus +Inf) so a scrape stays compact while
// quantiles keep the full sub-bucket resolution in-process.
func (s Snapshot) WritePrometheus(w io.Writer, family, labels string) {
	prefix := ""
	if labels != "" {
		prefix = labels + ","
	}
	var cum uint64
	idx := 0
	for o := histMinPow + 1; o <= histMaxPow; o++ {
		// Sum every sub-bucket whose upper bound is ≤ 2^o ns.
		bound := int64(1) << uint(o)
		for idx < numBuckets-1 && bucketUpperNs(idx) <= bound {
			cum += s.Buckets[idx]
			idx++
		}
		fmt.Fprintf(w, "%s_bucket{%sle=\"%g\"} %d\n", family, prefix, float64(bound)/1e9, cum)
	}
	fmt.Fprintf(w, "%s_bucket{%sle=\"+Inf\"} %d\n", family, prefix, s.Count)
	lb := ""
	if labels != "" {
		lb = "{" + labels + "}"
	}
	fmt.Fprintf(w, "%s_sum%s %.6f\n", family, lb, float64(s.SumNs)/1e9)
	fmt.Fprintf(w, "%s_count%s %d\n", family, lb, s.Count)
}
