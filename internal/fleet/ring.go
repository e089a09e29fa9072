package fleet

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"
)

// vnodes is the virtual-node count per physical node. 128 vnodes keep
// the maximum arc imbalance under a few percent for small fleets while
// the ring stays a trivially searchable few-KB slice.
const vnodes = 128

// Ring is an immutable consistent-hash ring over a fixed node set:
// each node is hashed at vnodes points, a key is owned by the first
// point clockwise from its Hash64. Losing a node remaps only the keys
// on its own arcs to their clockwise successors; every other key keeps
// its owner — which is what keeps the fleet's caches coherent through
// membership changes.
//
// Membership is fixed at construction (xdatad fleets are configured by
// flags, not discovery); a changed fleet is a new Ring.
type Ring struct {
	points []ringPoint // sorted by hash
}

type ringPoint struct {
	hash uint64
	node string
}

// NewRing builds a ring over nodes (duplicates ignored) with vnodes
// virtual nodes each. An empty node set is an error: a router without
// members is a configuration bug, not a degraded state.
func NewRing(nodes []string) (*Ring, error) {
	seen := make(map[string]bool, len(nodes))
	var uniq []string
	for _, n := range nodes {
		if n == "" {
			return nil, fmt.Errorf("fleet: empty node name in ring")
		}
		if !seen[n] {
			seen[n] = true
			uniq = append(uniq, n)
		}
	}
	if len(uniq) == 0 {
		return nil, fmt.Errorf("fleet: ring needs at least one node")
	}
	r := &Ring{points: make([]ringPoint, 0, len(uniq)*vnodes)}
	for _, n := range uniq {
		for i := 0; i < vnodes; i++ {
			// SHA-256 for the vnode points: FNV's avalanche is too
			// weak for near-identical "node#i" strings and produces
			// visibly unbalanced arcs. Construction-time only.
			sum := sha256.Sum256([]byte(fmt.Sprintf("%s#%d", n, i)))
			r.points = append(r.points, ringPoint{hash: binary.BigEndian.Uint64(sum[:8]), node: n})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// Tie-break on node name so equal hashes (astronomically
		// rare) still order deterministically on every member.
		return r.points[i].node < r.points[j].node
	})
	return r, nil
}

// Owner returns the node owning k: the first ring point at or
// clockwise after k's hash.
func (r *Ring) Owner(k Key) string { return r.ownerOf(k.Hash64()) }

func (r *Ring) ownerOf(h uint64) string {
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].node
}
