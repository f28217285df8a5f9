package mesh

import (
	"hash/fnv"
	"sort"
	"strconv"
)

// Ring is a consistent-hash ring over replica URLs. Each member is
// hashed onto the ring at VirtualNodes points; a key's preference order
// is the distinct members met walking clockwise from the key's hash.
// Two properties matter to the placer:
//
//   - affinity: the same model name always starts its candidate walk at
//     the same replica, so repeated loads and the data plane agree on
//     where a model should live without any coordination state;
//   - minimal movement: adding a member only steals keys for itself and
//     removing one only reassigns the keys it owned, so fleet membership
//     changes do not reshuffle every placement.
//
// A Ring is immutable once built, so it is safe for concurrent use; a
// fleet whose membership changes builds a fresh ring and swaps it in.
type Ring struct {
	points  []ringPoint // sorted by hash
	members int         // distinct URLs on the ring
}

type ringPoint struct {
	hash uint64
	url  string
}

// NewRing builds a ring with vnodes virtual nodes per member (≤0 picks
// the default 128) over the given members; duplicate URLs collapse.
func NewRing(vnodes int, urls ...string) *Ring {
	if vnodes <= 0 {
		vnodes = 128
	}
	r := &Ring{}
	seen := make(map[string]bool, len(urls))
	for _, u := range urls {
		if seen[u] {
			continue
		}
		seen[u] = true
		r.members++
		for i := 0; i < vnodes; i++ {
			r.points = append(r.points, ringPoint{hash: hash64(u + "#" + strconv.Itoa(i)), url: u})
		}
	}
	sort.Slice(r.points, func(i, j int) bool { return r.points[i].hash < r.points[j].hash })
	return r
}

// Order returns every member in the key's preference order: the walk
// clockwise from the key's hash, keeping the first occurrence of each
// member. The full order (not just the owner) is what budget spill
// traverses.
func (r *Ring) Order(key string) []string {
	if len(r.points) == 0 {
		return nil
	}
	out := make([]string, 0, r.members)
	seen := make(map[string]bool, r.members)
	start := r.search(key)
	for i := 0; i < len(r.points) && len(out) < r.members; i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.url] {
			seen[p.url] = true
			out = append(out, p.url)
		}
	}
	return out
}

// search returns the index of the first ring point at or after the
// key's hash (wrapping).
func (r *Ring) search(key string) int {
	h := hash64(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return i
}

func hash64(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s)) // hash.Hash writes never fail
	return mix64(h.Sum64())
}

// mix64 is the splitmix64 finalizer. Raw fnv-1a clusters badly on
// near-identical strings — vnode labels differ only in a digit or two,
// and an unmixed ring ends up with whole octants owned by one replica.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
