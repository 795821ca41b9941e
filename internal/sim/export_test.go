package sim

import "testing"

// The takeover admission path, opened to the external sim_test suites —
// the only ones that can import diskstore and so run on forEachStore.

// Readmit is readmit.
func (s *Scheduler) Readmit(m JobManifest) error { return s.readmit(m) }

// ErrDuplicate is errDuplicate.
var ErrDuplicate = errDuplicate

// PingPeers is pingPeers: one round of the health loop.
func (p *Peer) PingPeers() { p.pingPeers() }

// Owner is owner.
func (p *Peer) Owner(id string) string { return p.owner(id) }

// DirectHash is directHash.
func DirectHash(t *testing.T, req Request, slotWorkers int) string {
	return directHash(t, req, slotWorkers)
}
