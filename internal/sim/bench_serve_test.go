package sim_test

// BenchmarkServeReads measures the artifact read path end to end —
// request routing through the scheduler's HTTP handler down to the blob
// tier — under the four regimes a high-fan-out deployment lives in:
// cold (every read misses the hot tier and re-reads + re-verifies the
// disk blob), warm (resident in the LRU hot tier), etag304 (a
// revalidation that never touches the payload at all), and tiles (one
// pyramid tile per request). Baselined in BENCH.json and enforced by
// cmd/perfgate.

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/sim"
	"repro/internal/sim/diskstore"
)

// benchServeSetup runs one small job with a large pyramid product on a
// disk store and returns the scheduler's handler plus the artifact
// paths to hammer.
func benchServeSetup(b *testing.B, hotBytes int64) (h http.Handler, artifact string, tiles []string, etag string) {
	b.Helper()
	store, err := diskstore.New(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	s := sim.NewScheduler(sim.Config{MaxConcurrent: 1, TotalWorkers: 1, Store: store, HotBytes: hotBytes})
	b.Cleanup(func() { s.Close() })
	j, err := s.Submit(sim.Request{
		Problem: "sedov", RootN: 8, MaxLevel: sim.Int(1), Steps: 2, Workers: 1,
		Outputs: []analysis.OutputRequest{{Kind: analysis.KindPyramid, N: 512, NSamp: 8, Axis: 2}},
	})
	if err != nil {
		b.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Second)
	defer cancel()
	if _, err := j.Wait(ctx); err != nil {
		b.Fatal(err)
	}
	idx := j.Artifacts().Index()
	if idx.Count != 1 {
		b.Fatalf("expected 1 artifact, got %d", idx.Count)
	}
	m := idx.Artifacts[0]
	artifact = "/jobs/" + j.ID + "/artifacts/" + m.Name
	// One tile path per tile of the set, every level.
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, artifact, nil))
	ts, err := analysis.ParseTileSet(rec.Body.Bytes())
	if err != nil {
		b.Fatal(err)
	}
	for z := 0; z < ts.Levels; z++ {
		per := ts.TilesPerSide(z)
		for y := 0; y < per; y++ {
			for x := 0; x < per; x++ {
				tiles = append(tiles, fmt.Sprintf("%s/%d/%d/%d", artifact, z, x, y))
			}
		}
	}
	return s.Handler(), artifact, tiles, `"` + m.Hash + `"`
}

// serveOnce dispatches one request directly into the handler and
// checks the status, returning the recorder for further assertions.
func serveOnce(b *testing.B, h http.Handler, path string, header map[string]string, want int) {
	req := httptest.NewRequest(http.MethodGet, path, nil)
	for k, v := range header {
		req.Header.Set(k, v)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != want {
		b.Fatalf("GET %s: %d, want %d", path, rec.Code, want)
	}
}

func BenchmarkServeReads(b *testing.B) {
	// 64 KiB windows keep cold and warm comparable: both serve the same
	// bytes; what differs is where the payload came from.
	window := map[string]string{"Range": "bytes=0-65535"}

	b.Run("cold", func(b *testing.B) {
		// A 1-byte hot tier: every request is a miss — a full blob read
		// from disk plus sha256 verification before the window is served.
		h, artifact, _, _ := benchServeSetup(b, 1)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			serveOnce(b, h, artifact, window, http.StatusPartialContent)
		}
	})
	b.Run("warm", func(b *testing.B) {
		h, artifact, _, _ := benchServeSetup(b, 0)
		serveOnce(b, h, artifact, nil, http.StatusOK) // make it resident
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			serveOnce(b, h, artifact, window, http.StatusPartialContent)
		}
	})
	b.Run("etag304", func(b *testing.B) {
		h, artifact, _, etag := benchServeSetup(b, 0)
		inm := map[string]string{"If-None-Match": etag}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			serveOnce(b, h, artifact, inm, http.StatusNotModified)
		}
	})
	b.Run("tiles", func(b *testing.B) {
		h, _, tiles, _ := benchServeSetup(b, 0)
		serveOnce(b, h, tiles[0], nil, http.StatusOK) // make the set resident
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			serveOnce(b, h, tiles[i%len(tiles)], nil, http.StatusOK)
		}
	})
}
