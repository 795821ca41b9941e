package sim_test

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/sim/storetest"
)

// TestMemStoreConformance runs the shared Store conformance suite
// against the in-memory default.
func TestMemStoreConformance(t *testing.T) {
	storetest.Run(t, func(t *testing.T) sim.Store { return sim.NewMemStore() })
}
