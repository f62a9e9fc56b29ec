package fleet

import (
	"hash/fnv"
	"sort"
	"strconv"
)

// ring is a consistent-hash ring over replica IDs. Each member contributes
// vnodes points (FNV-1a of "id#i") on a uint64 circle; a key is owned by
// the member whose point is the first at or clockwise of the key's hash.
// Virtual nodes smooth the partition sizes, and consistency bounds the
// churn: removing one member moves only the keys it owned, so sticky
// routing moves only a killed replica's users, each to the next member.
type ring struct {
	hashes []uint64 // sorted point hashes
	owners []string // owners[i] owns hashes[i]
}

// hashKey is the ring's key hash: FNV-1a (the family the hub's content hash
// uses — deterministic across runs, no seed) pushed through a 64-bit
// avalanche finalizer. Raw FNV is too weak for ring placement: strings that
// differ only in a short suffix ("r0#0" … "r0#63") land within ~2^46 of each
// other on the 2^64 circle, clustering a member's virtual nodes into one arc
// and destroying the balance vnodes exist to provide.
func hashKey(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return mix64(h.Sum64())
}

// mix64 is the MurmurHash3 fmix64 finalizer: full avalanche, bijective.
func mix64(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// buildRing constructs a ring over ids with the given virtual-node count.
// An empty id set yields an empty ring (owner returns "").
func buildRing(ids []string, vnodes int) *ring {
	if vnodes <= 0 {
		vnodes = 64
	}
	type point struct {
		hash uint64
		id   string
	}
	pts := make([]point, 0, len(ids)*vnodes)
	for _, id := range ids {
		for i := 0; i < vnodes; i++ {
			pts = append(pts, point{hash: hashKey(id + "#" + strconv.Itoa(i)), id: id})
		}
	}
	// Ties (identical point hashes) break by id so the ring is a pure
	// function of its membership set, independent of insertion order.
	sort.Slice(pts, func(i, j int) bool {
		if pts[i].hash != pts[j].hash {
			return pts[i].hash < pts[j].hash
		}
		return pts[i].id < pts[j].id
	})
	r := &ring{
		hashes: make([]uint64, len(pts)),
		owners: make([]string, len(pts)),
	}
	for i, p := range pts {
		r.hashes[i] = p.hash
		r.owners[i] = p.id
	}
	return r
}

// owner returns the member owning key, or "" on an empty ring.
func (r *ring) owner(key string) string {
	if len(r.hashes) == 0 {
		return ""
	}
	h := hashKey(key)
	i := sort.Search(len(r.hashes), func(i int) bool { return r.hashes[i] >= h })
	if i == len(r.hashes) {
		i = 0 // wrap past the highest point
	}
	return r.owners[i]
}

// ownersFor walks clockwise from key collecting up to n distinct members in
// preference order — the failover sequence sticky routing uses.
func (r *ring) ownersFor(key string, n int) []string {
	if len(r.hashes) == 0 || n <= 0 {
		return nil
	}
	h := hashKey(key)
	start := sort.Search(len(r.hashes), func(i int) bool { return r.hashes[i] >= h })
	seen := make(map[string]bool, n)
	out := make([]string, 0, n)
	for i := 0; i < len(r.hashes) && len(out) < n; i++ {
		id := r.owners[(start+i)%len(r.hashes)]
		if !seen[id] {
			seen[id] = true
			out = append(out, id)
		}
	}
	return out
}

// members returns the distinct member ids on the ring, sorted.
func (r *ring) members() []string {
	seen := make(map[string]bool)
	out := make([]string, 0, 4)
	for _, id := range r.owners {
		if !seen[id] {
			seen[id] = true
			out = append(out, id)
		}
	}
	sort.Strings(out)
	return out
}
