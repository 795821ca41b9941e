package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/amr"
	"repro/internal/analysis"
	"repro/internal/clustering"
	"repro/internal/core"
	"repro/internal/ep128"
	"repro/internal/gravity"
	"repro/internal/mesh"
	"repro/internal/problems"
	"repro/internal/sim"
	"repro/internal/sim/diskstore"
	"repro/internal/snapshot"
)

// Probes are direct timed calls into one layer, made only in the traced
// run: they put a number on layers that the workloads cross only inside
// another layer's busy time. Each reports the median of a few repetitions.

// timeMedian runs fn n times and returns the median duration.
func timeMedian(n int, fn func()) time.Duration {
	v := make([]float64, n)
	for i := range v {
		t0 := time.Now()
		fn()
		v[i] = float64(time.Since(t0))
	}
	return time.Duration(median(v))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// probeGravity times the two Poisson solvers on a 64³ grid: the FFT root
// solve pancake_unigrid runs every step, and the multigrid subgrid solve.
func probeGravity(m metrics) {
	const n = 64
	rho := mesh.NewField3(n, n, n, 1)
	for k := 0; k < n; k++ {
		for j := 0; j < n; j++ {
			for i := 0; i < n; i++ {
				rho.Set(i, j, k, math.Sin(float64(i)*0.2)+math.Cos(float64(j+2*k)*0.13))
			}
		}
	}
	workers := parallelism()
	m["gravity.fft64_ms"] = ms(timeMedian(5, func() {
		if _, err := gravity.SolvePeriodicWorkers(rho, 1.0/n, 1, workers); err != nil {
			panic(err) // a 64³ periodic solve cannot fail on size
		}
	}))
	p := gravity.DefaultMGParams()
	p.Workers = workers
	var residual float64
	var cycles int
	m["gravity.mg64_ms"] = ms(timeMedian(3, func() {
		residual, cycles = gravity.SolveMultigrid(mesh.NewField3(n, n, n, 1), rho, 1.0/n, p)
	}))
	m["gravity.mg64_vcycles"] = float64(cycles)
	m["gravity.mg64_residual"] = residual
}

// probeClustering times the flag-clustering pass of a rebuild on a 32³
// flag field holding five blobs.
func probeClustering(m metrics) {
	rng := rand.New(rand.NewSource(1))
	fl := clustering.NewFlags(32, 32, 32)
	for n := 0; n < 5; n++ {
		ci, cj, ck := rng.Intn(32), rng.Intn(32), rng.Intn(32)
		for k := 0; k < 32; k++ {
			for j := 0; j < 32; j++ {
				for i := 0; i < 32; i++ {
					if (i-ci)*(i-ci)+(j-cj)*(j-cj)+(k-ck)*(k-ck) <= 16 {
						fl.Set(i, j, k, true)
					}
				}
			}
		}
	}
	m["clustering.cluster32_ms"] = ms(timeMedian(20, func() { clustering.Cluster(fl, clustering.DefaultParams()) }))
}

// sink keeps the arithmetic probes' results alive.
var sink float64

// probeEP128 times a dependent chain of extended-precision adds against
// the same chain in float64: the paper's EPA overhead.
func probeEP128(m metrics) {
	const n = 1 << 20
	y := ep128.FromFloat64(7.6543210987654321e-8)
	dd := timeMedian(5, func() {
		acc := ep128.FromFloat64(1.2345678901234567)
		for i := 0; i < n; i++ {
			acc = acc.Add(y)
		}
		sink = acc.Float64()
	})
	f64 := timeMedian(5, func() {
		acc := 1.2345678901234567
		for i := 0; i < n; i++ {
			acc += y.Hi
		}
		sink = acc
	})
	m["ep128.add_ns"] = float64(dd) / n
	m["ep128.overhead_x"] = ratio(float64(dd), float64(f64))
}

// probeAnalysis times the two analysis kernels collapse_restart's workflow
// does not call, on its final hierarchy.
func probeAnalysis(h *amr.Hierarchy, m metrics) {
	workers := parallelism()
	m["analysis.slice_ms"] = ms(timeMedian(5, func() {
		analysis.DensitySlice(h, 2, 0.5, 0, 1, 0, 1, 256, workers)
	}))
	data := analysis.SurfaceDensity(h, 2, 0, 1, 0, 1, 256, 16, workers)
	m["analysis.tiles_ms"] = ms(timeMedian(5, func() {
		if _, err := analysis.BuildTileSet(data, analysis.PyramidTileSize, workers); err != nil {
			panic(err) // 256 is a power-of-two multiple of the tile size
		}
	}))
}

// probeDiskstore times the durable store's write and read primitives on a
// fresh directory beside the workloads' data directories (the same
// filesystem, so the same fsync cost).
func probeDiskstore(m metrics) error {
	dir, err := os.MkdirTemp(outDir, "probe-diskstore-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	store, err := diskstore.New(dir)
	if err != nil {
		return err
	}
	defer store.Close()

	sim16, err := core.New("sedov", func(o *problems.Opts) { o.RootN, o.MaxLevel, o.Workers = 16, 1, 1 })
	if err != nil {
		return err
	}
	ckpt, err := snapshot.Encode(sim16.H, "sedov")
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(1))
	payload := func() []byte {
		b := make([]byte, 64<<10)
		rng.Read(b)
		return b
	}
	shared := payload()

	const n = 20
	var manifest, result, art, dedupe, checkpoint, load []float64
	var firstErr error
	timed := func(into *[]float64, unit time.Duration, fn func() error) {
		t0 := time.Now()
		if err := fn(); err != nil && firstErr == nil {
			firstErr = err
		}
		*into = append(*into, float64(time.Since(t0))/float64(unit))
	}
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("job%04d", i)
		timed(&manifest, time.Microsecond, func() error {
			return store.SaveManifest(sim.JobManifest{ID: id, Request: sim.Request{Problem: "sedov"}, Workers: 1, State: "running"})
		})
		timed(&checkpoint, time.Millisecond, func() error { return store.SaveCheckpoint(id, i, ckpt) })
		body := payload()
		hash := sim.HashBytes(body)
		timed(&art, time.Microsecond, func() error {
			return store.SaveArtifact(id, analysis.Artifact{Name: "a.bin", Kind: analysis.KindSlice, Data: body}, hash)
		})
		if i > 0 { // the first save of the shared payload writes the blob
			timed(&dedupe, time.Microsecond, func() error {
				return store.SaveArtifact(id, analysis.Artifact{Name: "shared.bin", Kind: analysis.KindSlice, Data: shared}, sim.HashBytes(shared))
			})
		} else if err := store.SaveArtifact(id, analysis.Artifact{Name: "shared.bin", Kind: analysis.KindSlice, Data: shared}, sim.HashBytes(shared)); err != nil {
			return err
		}
		timed(&result, time.Microsecond, func() error { return store.SaveResult(id, &sim.Result{Hash: "0", Steps: i}) })
		timed(&load, time.Microsecond, func() error {
			_, err := store.LoadBlob(hash)
			return err
		})
	}
	if firstErr != nil {
		return firstErr
	}
	m["diskstore.save_manifest_us_p50"] = median(manifest)
	m["diskstore.save_result_us_p50"] = median(result)
	m["diskstore.save_artifact_64k_us_p50"] = median(art)
	m["diskstore.save_artifact_dedupe_us_p50"] = median(dedupe)
	m["diskstore.save_checkpoint_ms_p50"] = median(checkpoint)
	m["diskstore.load_blob_us_p50"] = median(load)
	return nil
}

// probeRecover times Store.Recover on a data directory a server has just
// left behind, and Scheduler.Estimate on the cost model persisted there.
func probeRecover(dataDir string, m metrics) error {
	store, err := diskstore.New(dataDir)
	if err != nil {
		return err
	}
	defer store.Close()
	var jobs []sim.RecoveredJob
	var recErr error
	m["diskstore.recover_ms"] = ms(timeMedian(3, func() { jobs, recErr = store.Recover() }))
	if recErr != nil {
		return recErr
	}
	m["diskstore.jobs_on_disk"] = float64(len(jobs))

	state, err := store.LoadCostModel()
	if err != nil || len(state) == 0 {
		return err
	}
	sched := sim.NewScheduler(sim.Config{MaxConcurrent: 1})
	defer sched.Close()
	if err := sched.MergeCostModel(state); err != nil {
		return err
	}
	req := sim.Request{Problem: "sedov", RootN: 16, MaxLevel: sim.Int(1), Steps: coldSedovSteps}
	var estErr error
	m["costmodel.estimate_us"] = us(timeMedian(200, func() { _, estErr = sched.Estimate(req) }))
	return estErr
}

// probeCacheHit measures the in-process cost of answering a duplicate
// submission from the result cache of a memory-store scheduler. The
// allocation counts do not depend on the host and repeat exactly.
func probeCacheHit(m metrics) error {
	s := sim.NewScheduler(sim.Config{MaxConcurrent: 1, TotalWorkers: 1})
	defer s.Close()
	req := sim.Request{Problem: "sedov", RootN: 8, MaxLevel: sim.Int(1), Steps: 2}
	j, err := s.Submit(req)
	if err != nil {
		return err
	}
	if _, err := j.Wait(context.Background()); err != nil {
		return err
	}
	const n = 20000
	hit := func() error {
		dup, err := s.Submit(req)
		if err != nil {
			return err
		}
		_, err = dup.Result()
		return err
	}
	for i := 0; i < 100; i++ { // warm-up
		if err := hit(); err != nil {
			return err
		}
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		if err := hit(); err != nil {
			return err
		}
	}
	elapsed := time.Since(t0)
	runtime.ReadMemStats(&after)
	m["sim.cache_hit_inproc_ns"] = float64(elapsed) / n
	m["sim.cache_hit_allocs"] = math.Round(float64(after.Mallocs-before.Mallocs) / n)
	m["sim.cache_hit_bytes"] = math.Round(float64(after.TotalAlloc-before.TotalAlloc) / n)
	return nil
}

// probePeer runs the same cold jobs through a single node and through a
// non-owner of a three-peer ring (in-process peers on loopback listeners,
// durable stores): the difference is the forward + replication overhead.
// No workload crosses the peer layer yet; this is the baseline for the
// first cluster change.
func probePeer(seed int64, m metrics) error {
	const nPeers, nJobs = 3, 40
	root, err := os.MkdirTemp(outDir, "probe-peer-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(root)
	client := &http.Client{}
	defer client.CloseIdleConnections()

	type node struct {
		sched *sim.Scheduler
		peer  *sim.Peer
		srv   *httptest.Server
	}
	var nodes []node
	defer func() {
		for _, n := range nodes {
			if n.peer != nil {
				n.peer.Close()
			}
			n.srv.Close()
			n.sched.Close()
		}
	}()
	newSched := func(i int) (*sim.Scheduler, error) {
		store, err := diskstore.New(filepath.Join(root, fmt.Sprint("node", i)))
		if err != nil {
			return nil, err
		}
		// Identical scheduling config on every member: the canonical job ID
		// depends on the resolved worker budget.
		return sim.NewScheduler(sim.Config{MaxConcurrent: 1, TotalWorkers: 1, Store: store, CheckpointEvery: 2}), nil
	}

	lns := make([]net.Listener, nPeers)
	urls := make([]string, nPeers)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		lns[i], urls[i] = ln, "http://"+ln.Addr().String()
	}
	for i := range lns {
		sched, err := newSched(i)
		if err != nil {
			return err
		}
		peer, err := sim.NewPeer(sched, sim.PeerConfig{Self: urls[i], Peers: urls})
		if err != nil {
			sched.Close()
			return err
		}
		srv := &httptest.Server{Listener: lns[i], Config: &http.Server{Handler: peer.Handler()}}
		srv.Start()
		nodes = append(nodes, node{sched, peer, srv})
	}
	single, err := newSched(nPeers)
	if err != nil {
		return err
	}
	singleSrv := httptest.NewServer(single.Handler())
	nodes = append(nodes, node{sched: single, srv: singleSrv})
	ring, err := sim.NewRing(urls, 0)
	if err != nil {
		return err
	}

	rng := rand.New(rand.NewSource(seed))
	var clustered, alone []float64
	for i := 0; i < nJobs; i++ {
		// Two jobs with the same cost and different identities, so neither
		// side answers from the other's cache.
		for _, viaRing := range []bool{true, false} {
			req := sim.Request{Problem: "sedov", RootN: 8, MaxLevel: sim.Int(0), Steps: 2, Workers: 1,
				Knobs: map[string]float64{"e0": 8 + 4*rng.Float64()}}
			base := singleSrv.URL
			if viaRing {
				id, err := nodes[0].sched.CanonicalID(req)
				if err != nil {
					return err
				}
				owner := ring.Owner(id)
				for _, u := range urls {
					if u != owner {
						base = u
						break
					}
				}
			}
			op, err := runJob(client, base, req, nil, 0)
			if err != nil {
				return err
			}
			if viaRing {
				clustered = append(clustered, ms(op.latency))
			} else {
				alone = append(alone, ms(op.latency))
			}
		}
	}
	m["sim.peer.forward_overhead_ms_p50"] = median(clustered) - median(alone)
	for _, u := range urls {
		pm, err := scrapeMetrics(client, u)
		if err != nil {
			return err
		}
		m["sim.peer.forwards"] += pm["sim_peer_forwards_total"]
		m["sim.peer.replication_errors"] += pm["sim_peer_replication_errors_total"]
	}
	return nil
}
