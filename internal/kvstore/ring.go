package kvstore

import (
	"hash/fnv"
	"sort"
)

// ring is a consistent-hash ring with virtual nodes, mapping keys to
// replica sets.
type ring struct {
	points []ringPoint // sorted by hash
	nodes  int
}

type ringPoint struct {
	hash uint64
	node int
}

const vnodesPerNode = 128

func newRing(nodes int) *ring {
	r := &ring{nodes: nodes}
	r.points = make([]ringPoint, 0, nodes*vnodesPerNode)
	for n := 0; n < nodes; n++ {
		for v := 0; v < vnodesPerNode; v++ {
			// splitmix64 finalizer: uniform vnode placement regardless of
			// how similar the (node, vnode) inputs are.
			h := mix64(uint64(n)<<32 | uint64(v))
			r.points = append(r.points, ringPoint{hash: h, node: n})
		}
	}
	sort.Slice(r.points, func(i, j int) bool { return r.points[i].hash < r.points[j].hash })
	return r
}

// mix64 is the splitmix64 finalizer.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// replicas returns the first rf distinct nodes clockwise from the key's hash
// position, in preference order.
func (r *ring) replicas(key string, rf int) []int {
	return r.replicasInto(nil, key, rf)
}

// replicasInto is replicas, returned in buf's storage when it has room.
func (r *ring) replicasInto(buf []int, key string, rf int) []int {
	if rf > r.nodes {
		rf = r.nodes
	}
	h := hashString(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	out := buf[:0]
	if cap(out) < rf {
		out = make([]int, 0, rf)
	}
	seen := make(map[int]struct{}, rf)
	for len(out) < rf {
		p := r.points[i]
		if _, ok := seen[p.node]; !ok {
			seen[p.node] = struct{}{}
			out = append(out, p.node)
		}
		i++
		if i == len(r.points) {
			i = 0
		}
	}
	return out
}

// primary returns the first replica node for a key.
func (r *ring) primary(key string) int {
	return r.replicas(key, 1)[0]
}

// hashString positions a key on the ring. Raw FNV-64a clusters keys that
// share a prefix and differ only in a trailing counter (the store's chunk
// keys "c%08x", delta keys "d%08x", …): the final byte perturbs the hash by
// at most ~2^46, far less than the ~2^55 average gap between ring points, so
// whole key families would collapse onto one node. The splitmix64 finalizer
// restores avalanche over all 64 bits.
func hashString(s string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(s))
	return mix64(h.Sum64())
}
