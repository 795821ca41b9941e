package snapshot

import (
	"testing"

	"repro/internal/ep128"
)

// Entry is one grid of a stream, for the external tests: its grid-table
// geometry and its inflated raw record.
type Entry struct {
	Level int
	Lo, N [3]int
	Edge  [3]ep128.Dd
	Time  float64
	Raw   []byte
}

// Entries parses and inflates a valid stream without building a
// hierarchy, returning the header's root time and the grids in record
// order.
func Entries(t testing.TB, data []byte) (float64, []Entry) {
	t.Helper()
	hd, raws := split(t, data)
	es := make([]Entry, len(raws))
	for i, raw := range raws {
		gh := &hd.Grids[i]
		es[i] = Entry{Level: gh.Level, Lo: gh.Lo, N: gh.N, Edge: gh.Edge, Time: gh.Time, Raw: raw}
	}
	return hd.Time, es
}
