package diskstore

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/sim/storetest"
)

// TestDiskStoreConformance runs the shared Store conformance suite
// against the disk-backed implementation — the identical behavioral
// contract the memory store passes.
func TestDiskStoreConformance(t *testing.T) {
	storetest.Run(t, func(t *testing.T) sim.Store { return open(t, t.TempDir()) })
}
