package snapshot_test

import (
	"bytes"
	"encoding/binary"
	"hash/fnv"
	"math"
	"reflect"
	"testing"

	"repro/internal/amr"
	"repro/internal/core"
	"repro/internal/problems"
	"repro/internal/snapshot"
)

// evolved runs a registry problem for a few root steps and returns its
// hierarchy.
func evolved(t *testing.T, problem string, steps int, opts func(*problems.Opts)) *amr.Hierarchy {
	t.Helper()
	sim, err := core.New(problem, opts)
	if err != nil {
		t.Fatal(err)
	}
	sim.RunSteps(steps)
	return sim.H
}

func collapse(t *testing.T) *amr.Hierarchy {
	return evolved(t, "collapse", 10, func(o *problems.Opts) { o.RootN, o.MaxLevel, o.Chemistry = 16, 4, false })
}

// word is one 64-bit word of a hierarchy's state, addressed by grid and
// by a getter into it, so the same word can be read on a restored copy.
type word struct {
	what       string
	level, idx int
	at         func(g *amr.Grid) reflect.Value // a float64 or int64
}

func (w word) get(h *amr.Hierarchy) uint64 {
	v := w.at(h.Levels[w.level][w.idx])
	if v.Kind() == reflect.Int64 {
		return uint64(v.Int())
	}
	return math.Float64bits(v.Float())
}

// flip toggles the word's lowest bit.
func (w word) flip(h *amr.Hierarchy) {
	v := w.at(h.Levels[w.level][w.idx])
	if v.Kind() == reflect.Int64 {
		v.SetInt(v.Int() ^ 1)
		return
	}
	v.SetFloat(math.Float64frombits(math.Float64bits(v.Float()) ^ 1))
}

// stateWords lists, per level, one active and one ghost word of every
// field slab of the level's first grid and, on the level's first grid
// holding particles, every 64-bit word of its first particle's row — the
// nbody.Particles columns enumerated by reflection, so a column added
// there is flipped here whether or not amr.Grid.Record visits it.
func stateWords(t *testing.T, h *amr.Hierarchy) (ws []word, particleLevels int) {
	t.Helper()
	for l, lv := range h.Levels {
		for fi, f := range lv[0].State.Fields() {
			for _, c := range []struct {
				what string
				i    int
			}{{"active", f.Idx(0, 0, 0)}, {"ghost", 0}} {
				fi, i := fi, c.i
				ws = append(ws, word{c.what + " field word", l, 0, func(g *amr.Grid) reflect.Value {
					return reflect.ValueOf(g.State.Fields()[fi].Data).Index(i)
				}})
			}
		}
		for gi, g := range lv {
			if g.Parts.Len() == 0 {
				continue
			}
			particleLevels++
			cols := reflect.TypeOf(*g.Parts)
			for c := range cols.NumField() {
				col := func(g *amr.Grid) reflect.Value { return reflect.ValueOf(g.Parts).Elem().Field(c).Index(0) }
				switch el := cols.Field(c).Type.Elem(); el.Kind() {
				case reflect.Float64, reflect.Int64:
					ws = append(ws, word{cols.Field(c).Name, l, gi, col})
				case reflect.Struct: // an extended-precision position
					for k := range el.NumField() {
						if el.Field(k).Type.Kind() != reflect.Float64 {
							t.Fatalf("particle column %s: word %s is a %v", cols.Field(c).Name, el.Field(k).Name, el.Field(k).Type)
						}
						ws = append(ws, word{cols.Field(c).Name + "." + el.Field(k).Name, l, gi,
							func(g *amr.Grid) reflect.Value { return col(g).Field(k) }})
					}
				default:
					t.Fatalf("particle column %s holds %v: teach this test its words", cols.Field(c).Name, el)
				}
			}
			break
		}
	}
	return ws, particleLevels
}

// TestRecordCoversGridState: every field slab, active and ghost zones,
// and every particle column is state — one flipped bit in any of them
// changes Checksum, and survives Encode and Read, which give back a
// hierarchy with the flipped one's checksum.
func TestRecordCoversGridState(t *testing.T) {
	h := collapse(t)
	ws, particleLevels := stateWords(t, h)
	if particleLevels < 2 {
		t.Fatalf("particles on %d levels (grids per level %v), want at least 2", particleLevels, h.GridsPerLevel())
	}
	sum := h.Checksum()
	want := make([]uint64, len(ws))
	for i, w := range ws {
		w.flip(h)
		want[i] = w.get(h)
		if next := h.Checksum(); next == sum {
			t.Errorf("L%d grid %d: flipping the %s leaves the checksum", w.level, w.idx, w.what)
		} else {
			sum = next
		}
	}
	data, err := snapshot.Encode(h, "collapse")
	if err != nil {
		t.Fatal(err)
	}
	h2, _, err := snapshot.Read(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range ws {
		if got := w.get(h2); got != want[i] {
			t.Errorf("L%d grid %d: the %s reads back as %#x, was flipped to %#x", w.level, w.idx, w.what, got, want[i])
		}
	}
	if h2.Checksum() != sum {
		t.Fatalf("checksum %s after Encode and Read, %016x before", h2.ChecksumHex(), sum)
	}
}

// TestRecordIsTheChecksumStream: Checksum is FNV-1a over the root time,
// the level and grid counts, and per grid its geometry followed by its
// snapshot record's raw bytes, read here off the stream.
func TestRecordIsTheChecksumStream(t *testing.T) {
	hs := map[string]*amr.Hierarchy{
		"collapse": collapse(t),
		"sedov":    evolved(t, "sedov", 20, func(o *problems.Opts) { o.RootN, o.MaxLevel, o.Extra["e0"] = 32, 2, 50 }),
	}
	for name, h := range hs {
		data, err := snapshot.Encode(h, name)
		if err != nil {
			t.Fatal(err)
		}
		time, grids := snapshot.Entries(t, data)
		d := fnv.New64a()
		put := func(w uint64) { d.Write(binary.LittleEndian.AppendUint64(nil, w)) }
		var perLevel []int
		for _, g := range grids {
			for len(perLevel) <= g.Level {
				perLevel = append(perLevel, 0)
			}
			perLevel[g.Level]++
		}
		put(math.Float64bits(time))
		put(uint64(len(perLevel)))
		for l, n := range perLevel {
			put(uint64(n))
			for _, g := range grids {
				if g.Level != l {
					continue
				}
				for _, v := range []int{g.Level, g.Lo[0], g.Lo[1], g.Lo[2], g.N[0], g.N[1], g.N[2]} {
					put(uint64(v))
				}
				for _, e := range g.Edge {
					put(math.Float64bits(e.Hi))
					put(math.Float64bits(e.Lo))
				}
				put(math.Float64bits(g.Time))
				d.Write(g.Raw)
			}
		}
		if got, want := d.Sum64(), h.Checksum(); got != want {
			t.Errorf("%s: FNV-1a of the stream %016x, Checksum %016x", name, got, want)
		}
	}
}
