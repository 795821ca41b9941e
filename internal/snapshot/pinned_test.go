package snapshot_test

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/amr"
	"repro/internal/problems"
	"repro/internal/snapshot"
)

// TestFormat5BytesPinned: the SHA-256 of Encode's output for three evolved
// hierarchies — two grids of field slabs, one grid of particles, and a
// four-level collapse with particles on several levels — recorded before
// amr.Grid.Record visited runs of words instead of single words. A change
// to how a record is gathered, laid out or compressed moves one of them.
func TestFormat5BytesPinned(t *testing.T) {
	for _, c := range []struct {
		problem string
		build   func(*testing.T) *amr.Hierarchy
		sha     string
	}{
		{"sedov", func(t *testing.T) *amr.Hierarchy {
			return evolved(t, "sedov", 12, func(o *problems.Opts) { o.RootN, o.MaxLevel = 16, 1 })
		}, "04830ba6d00ce02a1e2ff92199937dec01af3c703bac4fc4a34e2d0abe347ba0"},
		{"pancake", func(t *testing.T) *amr.Hierarchy {
			return evolved(t, "pancake", 4, func(o *problems.Opts) { o.RootN = 16 })
		}, "3f626e9332ad7f031ecaff1d26f0a8c66915fb95de02c94e3759a4912d2f746f"},
		{"collapse", collapse, "c7a6452f889274f8aef2fb9585bf16bd127beea8219fbc5edab1e213e1ba98d0"},
	} {
		h := c.build(t)
		data, err := snapshot.Encode(h, c.problem)
		if err != nil {
			t.Fatal(err)
		}
		if sum := sha256.Sum256(data); hex.EncodeToString(sum[:]) != c.sha {
			t.Errorf("%s (grids per level %v): Encode's SHA-256 %x, pinned %s", c.problem, h.GridsPerLevel(), sum, c.sha)
		}
	}
}
