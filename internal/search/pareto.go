package search

import (
	"sort"
	"sync"
)

// Point is one feasible candidate on (or competing for) the frontier.
type Point struct {
	Trial   int     `json:"trial"`
	Source  string  `json:"source"` // "random", "mutate", "dnas"
	Metrics Metrics `json:"metrics"`
	// Record links back to the trial log entry carrying the full spec.
	Record *TrialRecord `json:"-"`
}

// dominates reports whether a is at least as good as b on every objective
// — accuracy up; latency, SRAM and flash down — and strictly better on at
// least one. trained picks the accuracy axis. Frontier.Add always reads
// the proxy, even for trained finalists: using the trained value only
// when both points carry one would make the relation non-transitive
// (proxy beats trained beats proxy), so frontier membership would depend
// on insertion order. The trained ordering is instead applied as a
// separate, transitive prune among finalists (PruneTrainedDominated),
// and only between two points that both carry a trained accuracy —
// trained and proxy values live on different scales (a short real
// training run lands well below the proxy's Table-4-anchored ceiling),
// so they are never compared against each other. Energy is deliberately
// not a fourth independent axis: power is model-independent (§3.4), so
// energy ranks identically to latency on a fixed device.
func dominates(a, b Metrics, trained bool) bool {
	accA, accB := a.AccuracyProxy, b.AccuracyProxy
	if trained {
		accA, accB = a.TrainedAccuracy, b.TrainedAccuracy
	}
	if accA < accB || a.LatencyS > b.LatencyS ||
		a.TotalSRAMBytes > b.TotalSRAMBytes || a.TotalFlashBytes > b.TotalFlashBytes {
		return false
	}
	return accA > accB || a.LatencyS < b.LatencyS ||
		a.TotalSRAMBytes < b.TotalSRAMBytes || a.TotalFlashBytes < b.TotalFlashBytes
}

// Frontier is a thread-safe Pareto frontier over (accuracy-proxy,
// latency, SRAM, flash). Member order is insertion order, so Pick is
// deterministic exactly when insertion is: Run inserts one finished
// generation at a time in trial order, and the workers of the next
// generation draw parents from it concurrently but never insert.
type Frontier struct {
	mu  sync.RWMutex
	pts []Point
}

// Add inserts a point unless an existing member dominates it — or ties
// it exactly on every objective, so re-discovered duplicates of a
// frontier architecture don't pile up — evicting any members the new
// point dominates. It reports whether the point joined the frontier.
func (f *Frontier) Add(p Point) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, q := range f.pts {
		if dominates(q.Metrics, p.Metrics, false) || q.Metrics == p.Metrics {
			return false
		}
	}
	kept := f.pts[:0]
	for _, q := range f.pts {
		if !dominates(p.Metrics, q.Metrics, false) {
			kept = append(kept, q)
		}
	}
	f.pts = append(kept, p)
	return true
}

// Points returns a snapshot sorted by latency (fastest first).
func (f *Frontier) Points() []Point {
	f.mu.RLock()
	out := append([]Point(nil), f.pts...)
	f.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Metrics.LatencyS != out[j].Metrics.LatencyS {
			return out[i].Metrics.LatencyS < out[j].Metrics.LatencyS
		}
		return out[i].Trial < out[j].Trial
	})
	return out
}

// Size returns the current frontier cardinality.
func (f *Frontier) Size() int {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return len(f.pts)
}

// PruneTrainedDominated applies the finalist dominance ordering on top of
// the proxy frontier: a member whose trained accuracy is dominated by
// another trained member (dominates on the trained axis) is evicted. Run
// after stage two has written trained accuracies. Because it only ever
// removes points, and that ordering restricted to trained pairs is a
// strict partial order, the result is independent of insertion order —
// unlike folding the trained axis into Add's dominance test.
func (f *Frontier) PruneTrainedDominated() {
	f.mu.Lock()
	defer f.mu.Unlock()
	pts := append([]Point(nil), f.pts...)
	kept := f.pts[:0]
	for _, p := range pts {
		dominated := false
		if p.Metrics.TrainedAccuracy > 0 {
			for _, q := range pts {
				if q.Metrics.TrainedAccuracy > 0 && dominates(q.Metrics, p.Metrics, true) {
					dominated = true
					break
				}
			}
		}
		if !dominated {
			kept = append(kept, p)
		}
	}
	f.pts = kept
}

// SpreadPoints picks at most k points spread evenly across a
// latency-sorted point slice (as returned by Frontier.Points), always
// including both endpoints, so a bounded selection covers the whole
// latency range of the frontier instead of clustering at the fast end.
// It is the shared selector behind finalist choice and -export-top.
func SpreadPoints(pts []Point, k int) []Point {
	if k <= 0 || k >= len(pts) {
		return append([]Point(nil), pts...)
	}
	picked := make([]Point, 0, k)
	if k == 1 {
		return append(picked, pts[0])
	}
	for i := 0; i < k; i++ {
		picked = append(picked, pts[i*(len(pts)-1)/(k-1)])
	}
	return picked
}

// Pick selects the member at pick mod size — the caller pre-draws pick
// from its own deterministic stream, so consulting the frontier consumes
// no RNG state (see Config.runTrial).
func (f *Frontier) Pick(pick int64) (Point, bool) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	if len(f.pts) == 0 {
		return Point{}, false
	}
	return f.pts[int(pick%int64(len(f.pts)))], true
}
