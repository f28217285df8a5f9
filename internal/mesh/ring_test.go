package mesh

import (
	"fmt"
	"testing"
)

func ringURLs(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("http://replica-%d:8151", i)
	}
	return out
}

func ringKeys(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("model-%d", i)
	}
	return out
}

// TestRingDistribution checks that ownership is roughly balanced for
// every fleet size the router is designed for: no replica owns less
// than half or more than double its fair share of 10k keys.
func TestRingDistribution(t *testing.T) {
	const nKeys = 10000
	keys := ringKeys(nKeys)
	for _, n := range []int{2, 3, 4, 5, 6, 7, 8} {
		t.Run(fmt.Sprintf("replicas=%d", n), func(t *testing.T) {
			r := NewRing(0, ringURLs(n)...)
			counts := map[string]int{}
			for _, k := range keys {
				counts[r.Owner(k)]++
			}
			if len(counts) != n {
				t.Fatalf("only %d of %d replicas own keys", len(counts), n)
			}
			fair := float64(nKeys) / float64(n)
			for url, c := range counts {
				if float64(c) < fair/2 || float64(c) > fair*2 {
					t.Errorf("%s owns %d keys; want within [%.0f, %.0f] of fair share %.0f",
						url, c, fair/2, fair*2, fair)
				}
			}
		})
	}
}

// TestRingMinimalMovement checks the consistent-hashing contract
// between two rings that differ by one member: the added member only
// steals keys for itself, the removed one only gives up the keys it
// owned.
func TestRingMinimalMovement(t *testing.T) {
	const nKeys = 10000
	keys := ringKeys(nKeys)
	cases := []struct{ before int }{{2}, {3}, {4}, {7}}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("add-to-%d", tc.before), func(t *testing.T) {
			urls := ringURLs(tc.before + 1)
			small, grown := NewRing(0, urls[:tc.before]...), NewRing(0, urls...)
			added := urls[tc.before]
			moved := 0
			for _, k := range keys {
				if before, now := small.Owner(k), grown.Owner(k); now != before {
					moved++
					if now != added {
						t.Fatalf("key %s moved %s → %s, not to the added member %s",
							k, before, now, added)
					}
				}
			}
			// Expect ~1/(n+1) of keys to move; allow 2× slack.
			if maxMoved := 2 * nKeys / (tc.before + 1); moved > maxMoved {
				t.Errorf("%d keys moved on add; want ≤ %d", moved, maxMoved)
			}
			if moved == 0 {
				t.Error("no keys moved to the added member; it owns nothing")
			}
		})
		t.Run(fmt.Sprintf("remove-from-%d", tc.before+1), func(t *testing.T) {
			urls := ringURLs(tc.before + 1)
			full, shrunk := NewRing(0, urls...), NewRing(0, urls[:tc.before]...)
			removed := urls[tc.before]
			for _, k := range keys {
				before, now := full.Owner(k), shrunk.Owner(k)
				if before == removed {
					if now == removed {
						t.Fatalf("key %s still owned by removed member", k)
					}
				} else if now != before {
					t.Fatalf("key %s moved %s → %s although its owner was not removed",
						k, before, now)
				}
			}
		})
	}
}

// TestRingOrder checks the preference walk: every member exactly once,
// starting at the owner, and deterministic for one key.
func TestRingOrder(t *testing.T) {
	urls := ringURLs(5)
	r := NewRing(0, urls...)
	for _, k := range ringKeys(50) {
		order := r.Order(k)
		if len(order) != len(urls) {
			t.Fatalf("Order(%s) returned %d members, want %d", k, len(order), len(urls))
		}
		if order[0] != r.Owner(k) {
			t.Fatalf("Order(%s)[0] = %s, Owner = %s", k, order[0], r.Owner(k))
		}
		seen := map[string]bool{}
		for _, u := range order {
			if seen[u] {
				t.Fatalf("Order(%s) repeats %s", k, u)
			}
			seen[u] = true
		}
		again := r.Order(k)
		for i := range order {
			if order[i] != again[i] {
				t.Fatalf("Order(%s) is not deterministic", k)
			}
		}
	}
}

// TestRingEdgeCases covers empty and single-member rings plus
// duplicate members.
func TestRingEdgeCases(t *testing.T) {
	r := NewRing(0)
	if got := r.Owner("x"); got != "" {
		t.Errorf("empty ring Owner = %q, want empty", got)
	}
	if got := r.Order("x"); got != nil {
		t.Errorf("empty ring Order = %v, want nil", got)
	}
	r = NewRing(0, "http://a", "http://a") // duplicate collapses
	if got := r.Order("anything"); len(got) != 1 || got[0] != "http://a" {
		t.Fatalf("Order over a duplicated member = %v, want [http://a]", got)
	}
	if got, want := len(r.points), len(NewRing(0, "http://a").points); got != want {
		t.Errorf("duplicated member holds %d ring points, want %d", got, want)
	}
	if got := r.Owner("anything"); got != "http://a" {
		t.Errorf("single-member Owner = %q", got)
	}
}
