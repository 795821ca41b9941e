package sim_test

// The distributed acceptance suite, over real TCP: three serve peers
// sharding the canonical request-hash space must place every job on
// exactly one owner, answer reads from any peer (single-hop proxy), and
// — when the owning peer is killed mid-job — resume the job on the
// surviving peer that now owns its hash slice, from the replicated
// checkpoint, to the same final hash and artifact bytes a single-node
// run produces.

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/sim/diskstore"
)

// clusterPeer is one member of an in-process test cluster: a real TCP
// listener, a disk store, a scheduler, and the peer layer on top.
type clusterPeer struct {
	url   string
	store *diskstore.Store
	sched *sim.Scheduler
	peer  *sim.Peer
	srv   *httptest.Server
	dead  bool
}

// kill tears the peer down without drain — process-kill semantics: the
// HTTP listener vanishes, running jobs are cut off non-terminally.
func (p *clusterPeer) kill() {
	if p.dead {
		return
	}
	p.dead = true
	p.peer.Close()
	p.srv.Close()
	p.sched.Close()
}

// startCluster brings up n peers on real localhost TCP ports. The
// listeners are bound first so every peer knows the full membership at
// construction time, exactly like a static -peers flag.
func startCluster(t *testing.T, n int) []*clusterPeer {
	t.Helper()
	lns := make([]net.Listener, n)
	urls := make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		urls[i] = "http://" + ln.Addr().String()
	}
	peers := make([]*clusterPeer, n)
	for i := range peers {
		store, err := diskstore.New(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		sched := sim.NewScheduler(durableConfig(store))
		peer, err := sim.NewPeer(sched, sim.PeerConfig{
			Self:      urls[i],
			Peers:     urls,
			PingEvery: 50 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		srv := &httptest.Server{Listener: lns[i], Config: &http.Server{Handler: peer.Handler()}}
		srv.Start()
		peers[i] = &clusterPeer{url: urls[i], store: store, sched: sched, peer: peer, srv: srv}
	}
	t.Cleanup(func() {
		for _, p := range peers {
			p.kill()
		}
	})
	return peers
}

// TestClusterShardedSweepPlacementInvariant submits a parameter sweep
// through rotating entry peers and checks the sharding contract: each
// job registered on exactly one peer (its ring owner), reads answered
// identically from every peer, results bitwise equal to a single-node
// run of the same sweep.
func TestClusterShardedSweepPlacementInvariant(t *testing.T) {
	peers := startCluster(t, 3)

	// The single-node reference for the whole sweep.
	ref := sim.NewScheduler(sim.Config{MaxConcurrent: 1, TotalWorkers: 1})
	defer ref.Close()

	const sweepN = 6
	reqBody := func(i int) string {
		return fmt.Sprintf(`{"problem":"sedov","rootn":8,"maxlevel":0,"steps":2,"workers":1,"knobs":{"e0":%d}}`, 5+i)
	}
	ids := make([]string, sweepN)
	entries := make([]int, sweepN)
	for i := 0; i < sweepN; i++ {
		entries[i] = i % len(peers)
		sub := postJob(t, peers[entries[i]].url, reqBody(i))
		ids[i] = sub.ID
		for k := 0; k < i; k++ {
			if ids[k] == sub.ID {
				t.Fatalf("sweep points %d and %d collided on id %s", k, i, sub.ID)
			}
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	owners := make([]int, sweepN)
	expectForwards := 0
	for i, id := range ids {
		// Exactly-one-owner: the job must be registered on one scheduler.
		owners[i] = -1
		for pi, p := range peers {
			if _, ok := p.sched.Get(id); ok {
				if owners[i] >= 0 {
					t.Fatalf("job %s registered on peers %d and %d", id, owners[i], pi)
				}
				owners[i] = pi
			}
		}
		if owners[i] < 0 {
			t.Fatalf("job %s registered nowhere", id)
		}
		if owners[i] != entries[i] {
			expectForwards++
		}
		j, _ := peers[owners[i]].sched.Get(id)
		if _, err := j.Wait(ctx); err != nil {
			t.Fatalf("job %s: %v", id, err)
		}
	}

	// The local GET /jobs lists partition the sweep: their union is the
	// full id set with no duplicates (the cluster view is the union).
	seen := map[string]int{}
	for _, p := range peers {
		var listed []sim.Status
		getJSON(t, p.url+"/jobs", &listed)
		for _, st := range listed {
			seen[st.ID]++
		}
	}
	for _, id := range ids {
		if seen[id] != 1 {
			t.Fatalf("job %s appears in %d local listings, want 1 (%v)", id, seen[id], seen)
		}
	}

	// Placement invariance: every peer answers every job's result with
	// the single-node reference hash (non-owners proxy one hop).
	for i, id := range ids {
		refReq := sim.Request{Problem: "sedov", RootN: 8, MaxLevel: sim.Int(0), Steps: 2, Workers: 1,
			Knobs: map[string]float64{"e0": float64(5 + i)}}
		rj, err := ref.Submit(refReq)
		if err != nil {
			t.Fatal(err)
		}
		if rj.ID != id {
			t.Fatalf("sweep point %d: cluster id %s != single-node id %s", i, id, rj.ID)
		}
		refRes, err := rj.Wait(ctx)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range peers {
			var res sim.Result
			getJSON(t, p.url+"/jobs/"+id+"/result", &res)
			if res.Hash != refRes.Hash {
				t.Fatalf("job %s via %s: hash %s, single-node %s", id, p.url, res.Hash, refRes.Hash)
			}
		}
	}

	forwards := 0
	for _, p := range peers {
		forwards += int(metricValue(t, p.url, "sim_peer_forwards_total"))
		if m := metricValue(t, p.url, "sim_peer_misdirected_total"); m != 0 {
			t.Fatalf("peer %s served %d misdirected requests", p.url, m)
		}
	}
	if forwards != expectForwards {
		t.Fatalf("cluster forwarded %d submissions, want %d", forwards, expectForwards)
	}
}

// TestClusterKillOwnerResumesElsewhere is the fault-tolerance
// acceptance test: kill the peer that owns a running job after its
// first replicated checkpoint; the survivor that now owns the job's
// hash slice must re-admit it, resume from the replicated checkpoint,
// and finish with the single-node reference hash and artifact bytes.
func TestClusterKillOwnerResumesElsewhere(t *testing.T) {
	peers := startCluster(t, 3)

	// Uninterrupted single-node reference of the same canonical request.
	ref := sim.NewScheduler(sim.Config{MaxConcurrent: 1, TotalWorkers: 1})
	defer ref.Close()
	refSrv := httptest.NewServer(ref.Handler())
	defer refSrv.Close()
	refSub := postJob(t, refSrv.URL, interruptReq)

	sub := postJob(t, peers[0].url, interruptReq)
	if sub.ID != refSub.ID {
		t.Fatalf("canonical identity differs: cluster %s, single-node %s", sub.ID, refSub.ID)
	}

	owner := -1
	for pi, p := range peers {
		if _, ok := p.sched.Get(sub.ID); ok {
			owner = pi
		}
	}
	if owner < 0 {
		t.Fatal("submitted job registered nowhere")
	}

	// Wait until the job is mid-run with at least one checkpoint
	// replicated standby-side: killing before that would test a cold
	// restart, not checkpoint-resume.
	deadline := time.Now().Add(120 * time.Second)
	standby := -1
	for standby < 0 {
		if time.Now().After(deadline) {
			t.Fatal("no replicated checkpoint appeared before completion — job too fast to interrupt")
		}
		var st sim.Status
		getJSON(t, peers[owner].url+"/jobs/"+sub.ID, &st)
		if st.State != "running" && st.State != "queued" {
			t.Fatalf("job reached %s before it could be interrupted", st.State)
		}
		for pi, p := range peers {
			if pi == owner {
				continue
			}
			if ck, err := p.store.LatestCheckpoint(sub.ID); err == nil && ck != nil {
				standby = pi
			}
		}
		time.Sleep(2 * time.Millisecond)
	}

	peers[owner].kill()

	// The standby's ping loop marks the owner dead and takes the job
	// over; it must show up in exactly one surviving scheduler.
	takeoverDeadline := time.Now().Add(30 * time.Second)
	var resumedOn *clusterPeer
	for resumedOn == nil {
		if time.Now().After(takeoverDeadline) {
			t.Fatal("no survivor took the job over")
		}
		for pi, p := range peers {
			if pi == owner {
				continue
			}
			if _, ok := p.sched.Get(sub.ID); ok {
				resumedOn = p
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	if peers[standby].url != resumedOn.url {
		t.Fatalf("job resumed on %s, but the replicated checkpoint lives on %s", resumedOn.url, peers[standby].url)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Second)
	defer cancel()
	j, _ := resumedOn.sched.Get(sub.ID)
	res, err := j.Wait(ctx)
	if err != nil {
		t.Fatalf("taken-over job failed: %v", err)
	}

	var st sim.Status
	getJSON(t, resumedOn.url+"/jobs/"+sub.ID, &st)
	if !st.Recovered || !strings.HasPrefix(st.ResumedFrom, "checkpoint step ") {
		t.Fatalf("takeover did not resume from a checkpoint: recovered=%v resumed_from=%q", st.Recovered, st.ResumedFrom)
	}
	if n := metricValue(t, resumedOn.url, "sim_peer_takeovers_total"); n != 1 {
		t.Fatalf("new owner reports %d takeovers, want 1", n)
	}

	refJob, ok := ref.Get(refSub.ID)
	if !ok {
		t.Fatal("reference job lost")
	}
	refRes, err := refJob.Wait(ctx)
	if err != nil {
		t.Fatalf("reference run failed: %v", err)
	}
	if res.Hash != refRes.Hash {
		t.Fatalf("taken-over run diverged: hash %s, single-node %s", res.Hash, refRes.Hash)
	}
	if res.Steps != refRes.Steps || res.Time != refRes.Time {
		t.Fatalf("taken-over run bounds differ: %d@%g vs %d@%g", res.Steps, res.Time, refRes.Steps, refRes.Time)
	}

	// Artifact bytes — including the ones produced before the kill,
	// which reached the survivor via replication — must equal the
	// uninterrupted run's, read from the new owner directly and proxied
	// through the remaining peer.
	wantArts := artifactBodies(t, refSrv.URL, refSub.ID)
	if len(wantArts) == 0 {
		t.Fatal("reference run produced no artifacts")
	}
	for _, p := range peers {
		if p.dead {
			continue
		}
		got := artifactBodies(t, p.url, sub.ID)
		if len(got) != len(wantArts) {
			t.Fatalf("artifact set via %s has %d entries, single-node %d", p.url, len(got), len(wantArts))
		}
		for name, want := range wantArts {
			if !bytes.Equal(got[name], want) {
				t.Fatalf("artifact %s via %s differs from the single-node run", name, p.url)
			}
		}
	}
}
