package sim

// ring.go: consistent-hash ownership over the canonical request-hash
// space. Each serve peer owns the arc of the ring between its virtual
// nodes and their predecessors; a job ID (itself a hash of the resolved
// request) maps to the first virtual node at or after its point. Virtual
// nodes keep the arcs statistically even, and — because every peer
// derives the identical ring from the identical static -peers list — no
// coordination is needed for two peers to agree who owns a job.

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"
)

// DefaultVnodes is the virtual-node count per peer of every cluster
// peer's ring (NewPeer passes it): enough to keep the largest/smallest arc ratio within a few
// percent for small clusters without making ring construction notable.
const DefaultVnodes = 64

// Ring is an immutable consistent-hash ring over a static peer list.
// Membership changes (a peer marked dead) are handled by the lookup
// side — OwnerExcluding walks past excluded peers — not by rebuilding
// the ring, so every peer keeps agreeing on arc boundaries.
type Ring struct {
	peers  []string
	points []ringPoint // sorted by hash
}

// ringPoint is one virtual node: its position and its peer's index.
type ringPoint struct {
	hash uint64
	peer int
}

// ringHash maps a string to its ring position: the first 8 bytes of its
// SHA-256, matching the construction of the canonical job ID space.
func ringHash(s string) uint64 {
	sum := sha256.Sum256([]byte(s))
	return binary.BigEndian.Uint64(sum[:8])
}

// NewRing builds the ring over the peer list (order-insensitive: points
// depend only on the peer names) with vnodes virtual nodes per peer
// (<= 0 selects DefaultVnodes).
func NewRing(peers []string, vnodes int) (*Ring, error) {
	if len(peers) == 0 {
		return nil, fmt.Errorf("sim: ring needs at least one peer")
	}
	if vnodes <= 0 {
		vnodes = DefaultVnodes
	}
	seen := map[string]bool{}
	r := &Ring{peers: append([]string(nil), peers...)}
	for i, p := range r.peers {
		if seen[p] {
			return nil, fmt.Errorf("sim: duplicate ring peer %q", p)
		}
		seen[p] = true
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{hash: ringHash(fmt.Sprintf("%s#%d", p, v)), peer: i})
		}
	}
	sort.Slice(r.points, func(a, b int) bool { return r.points[a].hash < r.points[b].hash })
	return r, nil
}

// Peers returns the ring's peer list (the caller must not mutate it).
func (r *Ring) Peers() []string { return r.peers }

// Owner returns the peer owning the given job ID.
func (r *Ring) Owner(id string) string {
	return r.OwnerExcluding(id, nil)
}

// OwnerExcluding returns the first peer at or after the ID's ring point
// that is not excluded — the owner under a membership view that treats
// excluded peers as absent. With every peer excluded it returns "".
func (r *Ring) OwnerExcluding(id string, excluded map[string]bool) string {
	h := ringHash(id)
	n := len(r.points)
	start := sort.Search(n, func(i int) bool { return r.points[i].hash >= h })
	for i := 0; i < n; i++ {
		p := r.peers[r.points[(start+i)%n].peer]
		if !excluded[p] {
			return p
		}
	}
	return ""
}

// Successor returns the first peer after the ID's owning arc that is
// neither `self` nor excluded: the standby that replicated state for the
// ID should land on, and exactly the peer OwnerExcluding resolves to
// once `self` dies. Returns "" for a cluster with no eligible standby.
func (r *Ring) Successor(id, self string, excluded map[string]bool) string {
	ex := map[string]bool{self: true}
	for p, dead := range excluded {
		if dead {
			ex[p] = true
		}
	}
	return r.OwnerExcluding(id, ex)
}
