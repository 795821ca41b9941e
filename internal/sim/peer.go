package sim

// peer.go: the distributed face of the scheduler. N `enzogo serve`
// processes form a static peer group; every peer derives the identical
// consistent-hash ring from the shared -peers list, owns the jobs whose
// canonical IDs fall on its arcs, and answers for the rest by forwarding
// (submissions) or proxying (reads) to the owner — one hop, never more:
// a forwarded request carries ForwardedHeader and is always handled
// locally by the receiver, so no routing disagreement can loop.
//
// Fault tolerance rides the checkpoint machinery of the underlying
// scheduler: an owner replicates each job's manifest, restart
// checkpoints and retained artifacts to the job's ring successor
// (exactly the peer that becomes owner if this one dies). The
// successor's ping loop detects the death and re-admits the replicated
// jobs into its own scheduler, which resumes them from the replicated
// checkpoint with the pre-resume artifacts already rehydrated — to the
// same final hash and artifact bytes the original owner would have
// produced, because every kernel is bitwise worker-count-invariant.

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httputil"
	"net/url"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/analysis"
)

// ForwardedHeader marks a request already routed once by a peer; the
// receiver must handle it locally (the single-hop loop guard). Its value
// is the forwarding peer's advertised URL, for diagnostics.
const ForwardedHeader = "X-Enzogo-Forwarded"

// maxReplicaBody bounds a POST /peer/replicas payload (a manifest plus
// one encoded checkpoint).
const maxReplicaBody = 256 << 20

// PeerConfig configures one member of a serve peer group.
type PeerConfig struct {
	// Self is this peer's advertised base URL, e.g. "http://10.0.0.1:8080".
	// It must appear in Peers.
	Self string
	// Peers is the static membership: every peer's advertised base URL,
	// identical (as a set) on every member.
	Peers []string
	// Vnodes is the virtual-node count per peer (<= 0 = DefaultVnodes).
	// Must be identical on every member.
	Vnodes int
	// PingEvery is the health-check cadence (<= 0 = 1s). A peer that
	// fails three pings in a row is treated as dead until a ping succeeds
	// again.
	PingEvery time.Duration
}

// replica is one replicated job record held for a peer that owns the
// job: its latest manifest, (once the owner checkpoints) the latest
// restart checkpoint, and the artifact rows shipped so far. Data is
// base64 in the JSON wire form. Artifacts is never populated by the
// owner's POST — rows accumulate standby-side from the per-artifact
// endpoint, in production order.
type replica struct {
	Manifest  JobManifest    `json:"manifest"`
	Step      int            `json:"step"`
	Data      []byte         `json:"data,omitempty"`
	Artifacts []ArtifactMeta `json:"artifacts,omitempty"`
}

// replicaArtifact is the wire form of one replicated derived-output
// artifact: its index row plus the payload bytes (base64 in JSON).
type replicaArtifact struct {
	Meta ArtifactMeta `json:"meta"`
	Data []byte       `json:"data"`
}

// Peer wraps a Scheduler with the distributed routing, replication and
// takeover logic. Its Handler replaces Scheduler.Handler as the HTTP
// surface; everything a single-node deployment serves is still served,
// with identical semantics, plus the /peer/* endpoints.
type Peer struct {
	s       *Scheduler
	cfg     PeerConfig
	ring    *Ring
	client  *http.Client
	proxies map[string]*httputil.ReverseProxy

	mu       sync.Mutex
	dead     map[string]bool
	misses   map[string]int // consecutive failed pings per peer
	replicas map[string]replica

	forwards    atomic.Int64 // submissions forwarded to their owner
	proxied     atomic.Int64 // reads proxied to their owner
	misdirected atomic.Int64 // forwarded requests we do not own (served anyway)
	takeovers   atomic.Int64 // replicated jobs re-admitted after an owner death
	replErrors  atomic.Int64 // replication sends that failed
	proxyErrors atomic.Int64 // forwards/proxies that failed at the transport
	modelSyncs  atomic.Int64 // cost-model states broadcast to peers

	stop chan struct{}
	once sync.Once
	wg   sync.WaitGroup
}

// NewPeer attaches the distributed layer to a scheduler and starts the
// peer health loop. Close detaches it; the scheduler's own lifetime
// stays with the caller.
func NewPeer(s *Scheduler, cfg PeerConfig) (*Peer, error) {
	if cfg.PingEvery <= 0 {
		cfg.PingEvery = time.Second
	}
	self := false
	for _, peer := range cfg.Peers {
		if peer == cfg.Self {
			self = true
		}
	}
	if !self {
		return nil, fmt.Errorf("sim: peer self %q not in peer list %v", cfg.Self, cfg.Peers)
	}
	ring, err := NewRing(cfg.Peers, cfg.Vnodes)
	if err != nil {
		return nil, err
	}
	p := &Peer{
		s:        s,
		cfg:      cfg,
		ring:     ring,
		client:   &http.Client{Timeout: 30 * time.Second},
		proxies:  make(map[string]*httputil.ReverseProxy),
		dead:     make(map[string]bool),
		misses:   make(map[string]int),
		replicas: make(map[string]replica),
		stop:     make(chan struct{}),
	}
	for _, peer := range cfg.Peers {
		if peer == cfg.Self {
			continue
		}
		u, err := url.Parse(peer)
		if err != nil || u.Scheme == "" || u.Host == "" {
			return nil, fmt.Errorf("sim: peer URL %q must be absolute (http://host:port)", peer)
		}
		rp := httputil.NewSingleHostReverseProxy(u)
		rp.FlushInterval = -1 // NDJSON event streams must flush per line
		director := rp.Director
		rp.Director = func(req *http.Request) {
			director(req)
			req.Header.Set(ForwardedHeader, cfg.Self)
		}
		rp.ErrorHandler = func(w http.ResponseWriter, r *http.Request, err error) {
			p.proxyErrors.Add(1)
			writeError(w, http.StatusBadGateway, fmt.Errorf("peer %s unreachable: %w", u.Host, err))
		}
		p.proxies[peer] = rp
	}
	s.setReplHooks(&replHooks{
		scheduled:  func(m JobManifest) { p.replicate(replica{Manifest: m, Step: -1}) },
		checkpoint: func(m JobManifest, step int, data []byte) { p.replicate(replica{Manifest: m, Step: step, Data: data}) },
		artifact:   p.replicateArtifact,
		artifactDrop: func(id string, names []string) {
			p.sendJSON(http.MethodDelete, id, "/artifacts", names)
		},
		// A terminal job's standby can drop the replicated record.
		terminal: func(id string) { p.sendJSON(http.MethodDelete, id, "", nil) },
		model:    p.replicateModel,
	})
	p.wg.Add(1)
	go p.pingLoop()
	return p, nil
}

// Close stops the health loop and detaches the replication hooks. It
// does not close the underlying scheduler.
func (p *Peer) Close() {
	p.once.Do(func() { close(p.stop) })
	p.wg.Wait()
	p.s.setReplHooks(nil)
}

// Scheduler returns the wrapped scheduler.
func (p *Peer) Scheduler() *Scheduler { return p.s }

// owner returns the peer that should answer for a job ID under the
// current liveness view: the ring owner, skipping peers marked dead.
func (p *Peer) owner(id string) string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.ring.OwnerExcluding(id, p.dead)
}

// standbyFor returns the live ring successor that should hold a local
// job's replicated state ("" in a single-peer or fully-degraded group).
func (p *Peer) standbyFor(id string) string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.ring.Successor(id, p.cfg.Self, p.dead)
}

// Handler returns the peer's HTTP surface: the scheduler's full API with
// ownership routing in front, plus the peer-to-peer endpoints
// (POST/DELETE /peer/replicas/{id}, GET /peer/ring) and peer counters
// appended to /metrics. GET /jobs (the list) is served locally on every
// peer — each peer lists the jobs it holds; a cluster-wide view is the
// union over peers.
func (p *Peer) Handler() http.Handler {
	base := p.s.Handler()
	mux := http.NewServeMux()
	mux.HandleFunc("POST /peer/replicas/{id}", replicaRoute(p.handleReplicaPut))
	mux.HandleFunc("DELETE /peer/replicas/{id}", replicaRoute(p.handleReplicaDelete))
	mux.HandleFunc("POST /peer/replicas/{id}/artifacts", replicaRoute(p.handleReplicaArtifactPut))
	mux.HandleFunc("DELETE /peer/replicas/{id}/artifacts", replicaRoute(p.handleReplicaArtifactDelete))
	mux.HandleFunc("POST /peer/model", p.handleModelPut)
	mux.HandleFunc("GET /peer/ring", p.handleRing)
	mux.HandleFunc("GET /metrics", p.handleMetrics)
	mux.Handle("POST /jobs", p.routeSubmit(base))
	mux.Handle("/jobs/{id}", p.routeJob(base))
	mux.Handle("/jobs/{id}/{rest...}", p.routeJob(base))
	mux.Handle("/", base)
	return mux
}

// replicaRoute answers 400 for a /peer/replicas/{id} request whose id is
// not a canonical job ID — the lowercase hex of key's 8 digest bytes —
// before h touches the store or the replica map: the mux decodes %2F
// inside a segment, so {id} can carry a path.
func replicaRoute(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		if b, err := hex.DecodeString(id); err != nil || len(b) != 8 || hex.EncodeToString(b) != id {
			writeError(w, http.StatusBadRequest, fmt.Errorf("replica id %q is not a job id", id))
			return
		}
		h(w, r)
	}
}

// routeSubmit decides where a submission runs. The canonical ID is
// resolved from the request body before any job state exists, so the
// ownership check is a hash plus a ring lookup — malformed bodies fall
// through to the local handler for the identical error the single-node
// server would produce.
func (p *Peer) routeSubmit(base http.Handler) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxRequestBody))
		if err != nil {
			var tooBig *http.MaxBytesError
			if errors.As(err, &tooBig) {
				writeError(w, http.StatusRequestEntityTooLarge, err)
				return
			}
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
			return
		}
		r.Body = io.NopCloser(bytes.NewReader(body))
		id := ""
		var req Request
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		if dec.Decode(&req) == nil {
			id, _ = p.s.CanonicalID(req)
		}
		if r.Header.Get(ForwardedHeader) != "" {
			// Single-hop guard: never re-forward. A forwarded submission
			// we do not own means the sender's liveness view disagreed
			// with ours; running it here is still correct (any peer can
			// run any job to the same bits), just unaccounted placement.
			if id != "" && p.owner(id) != p.cfg.Self {
				p.misdirected.Add(1)
			}
			base.ServeHTTP(w, r)
			return
		}
		if id == "" { // unresolvable request: local handler owns the error
			base.ServeHTTP(w, r)
			return
		}
		owner := p.owner(id)
		if owner == p.cfg.Self || owner == "" {
			base.ServeHTTP(w, r)
			return
		}
		p.forwards.Add(1)
		p.proxies[owner].ServeHTTP(w, r)
	}
}

// routeJob decides where a per-job read (or cancel) is answered: locally
// when the job lives here (owned, taken over, or retained from before a
// membership change), otherwise proxied one hop to the live owner.
func (p *Peer) routeJob(base http.Handler) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		if _, ok := p.s.Get(id); ok {
			base.ServeHTTP(w, r)
			return
		}
		if r.Header.Get(ForwardedHeader) != "" {
			if p.owner(id) != p.cfg.Self {
				p.misdirected.Add(1)
			}
			base.ServeHTTP(w, r)
			return
		}
		owner := p.owner(id)
		if owner == p.cfg.Self || owner == "" {
			base.ServeHTTP(w, r) // ours (or nobody's): a 404 here is authoritative
			return
		}
		p.proxied.Add(1)
		p.proxies[owner].ServeHTTP(w, r)
	}
}

// replicate ships a job's replicated record to its ring successor.
func (p *Peer) replicate(rep replica) {
	p.sendJSON(http.MethodPost, rep.Manifest.ID, "", rep)
}

// replicateArtifact ships one retained artifact (index row plus payload)
// to the job's standby, keeping the replicated artifact set equal to the
// owner's as production proceeds — a takeover resumes mid-run, so the
// pre-resume artifacts must already be standby-side.
func (p *Peer) replicateArtifact(id string, a analysis.Artifact, hash string) {
	m := metaOf(a)
	m.Hash = hash
	p.sendJSON(http.MethodPost, id, "/artifacts", replicaArtifact{Meta: m, Data: a.Data})
}

// sendJSON runs one replication call against the job's standby (nil body
// sends no payload). Errors are counted, not surfaced: replication is
// best-effort standby state, and the job's own durability lives in the
// owner's store.
func (p *Peer) sendJSON(method, id, suffix string, body any) {
	target := p.standbyFor(id)
	if target == "" {
		return
	}
	var rd io.Reader
	if body != nil {
		buf, err := json.Marshal(body)
		if err != nil {
			p.replErrors.Add(1)
			return
		}
		rd = bytes.NewReader(buf)
	}
	req, err := http.NewRequest(method, target+"/peer/replicas/"+id+suffix, rd)
	if err != nil {
		p.replErrors.Add(1)
		return
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	p.do(req)
}

// replicateModel broadcasts the local cost model's serialized state to
// every live peer, so each member estimates (and admits) from the whole
// group's job history, not just the jobs it happened to own. Receivers
// merge without re-broadcasting, so the gossip cannot loop.
func (p *Peer) replicateModel(state []byte) {
	p.mu.Lock()
	targets := make([]string, 0, len(p.cfg.Peers))
	for _, peer := range p.cfg.Peers {
		if peer != p.cfg.Self && !p.dead[peer] {
			targets = append(targets, peer)
		}
	}
	p.mu.Unlock()
	for _, target := range targets {
		req, err := http.NewRequest(http.MethodPost, target+"/peer/model", bytes.NewReader(state))
		if err != nil {
			p.replErrors.Add(1)
			continue
		}
		req.Header.Set("Content-Type", "application/json")
		p.do(req)
		p.modelSyncs.Add(1)
	}
}

// handleModelPut merges a peer's broadcast cost-model state into the
// local model. The merge is a union keyed by job ID, so repeated or
// crossing broadcasts converge instead of flapping.
func (p *Peer) handleModelPut(w http.ResponseWriter, r *http.Request) {
	state, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxReplicaBody))
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad model body: %w", err))
		return
	}
	if err := p.s.MergeCostModel(state); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad model state: %w", err))
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// do runs one peer-to-peer request, counting failures.
func (p *Peer) do(req *http.Request) {
	resp, err := p.client.Do(req)
	if err != nil {
		p.replErrors.Add(1)
		return
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode >= 400 {
		p.replErrors.Add(1)
	}
}

// handleReplicaPut stores a replicated job record from the job's owner.
// Checkpoint bytes go into the local store immediately (so a takeover
// resumes even if it races later replications); the manifest stays in
// peer memory — writing it to the store would make this peer's next
// restart recover a job it does not own.
func (p *Peer) handleReplicaPut(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	var rep replica
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxReplicaBody))
	if err := dec.Decode(&rep); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad replica body: %w", err))
		return
	}
	if rep.Manifest.ID != id {
		writeError(w, http.StatusBadRequest, fmt.Errorf("replica manifest is for %q, not %q", rep.Manifest.ID, id))
		return
	}
	if len(rep.Data) > 0 {
		p.s.noteStoreErr(p.s.store.SaveCheckpoint(id, rep.Step, rep.Data))
	}
	p.mu.Lock()
	// Artifact rows accumulate via their own endpoint; a manifest or
	// checkpoint update must not wipe them.
	rep.Artifacts = p.replicas[id].Artifacts
	p.replicas[id] = rep
	p.mu.Unlock()
	w.WriteHeader(http.StatusNoContent)
}

// handleReplicaArtifactPut stores one replicated artifact from the job's
// owner: the payload goes into the local store's blob tier right away,
// the index row into the in-memory replica record (production order,
// replace-by-name) for a takeover to rehydrate from.
func (p *Peer) handleReplicaArtifactPut(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	var ra replicaArtifact
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxReplicaBody))
	if err := dec.Decode(&ra); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad replica artifact body: %w", err))
		return
	}
	if err := p.s.store.SaveArtifact(id, artifactOf(ra.Meta, ra.Data), ra.Meta.Hash); err != nil {
		writeError(w, http.StatusInternalServerError, fmt.Errorf("replica artifact: %w", err))
		return
	}
	p.mu.Lock()
	rep := p.replicas[id]
	if i := slices.IndexFunc(rep.Artifacts, func(m ArtifactMeta) bool { return m.Name == ra.Meta.Name }); i >= 0 {
		rep.Artifacts[i] = ra.Meta
	} else {
		rep.Artifacts = append(rep.Artifacts, ra.Meta)
	}
	p.replicas[id] = rep
	p.mu.Unlock()
	w.WriteHeader(http.StatusNoContent)
}

// handleReplicaArtifactDelete mirrors the owner's artifact eviction on
// the standby: the named rows leave the replica record and, unless the
// job has become local, the store.
func (p *Peer) handleReplicaArtifactDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	var names []string
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxReplicaBody))
	if err := dec.Decode(&names); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad artifact drop body: %w", err))
		return
	}
	p.mu.Lock()
	if rep, ok := p.replicas[id]; ok {
		rep.Artifacts = slices.DeleteFunc(rep.Artifacts, func(m ArtifactMeta) bool { return slices.Contains(names, m.Name) })
		p.replicas[id] = rep
	}
	p.mu.Unlock()
	if _, local := p.s.Get(id); !local {
		p.s.noteStoreErr(p.s.store.DeleteArtifacts(id, names))
	}
	w.WriteHeader(http.StatusNoContent)
}

// handleReplicaDelete drops a replicated record once the owner reports
// the job terminal. Replicated checkpoint and artifact bytes are
// reclaimed unless the job has since become local (then the local
// scheduler manages them).
func (p *Peer) handleReplicaDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	p.mu.Lock()
	delete(p.replicas, id)
	p.mu.Unlock()
	if _, local := p.s.Get(id); !local {
		p.s.noteStoreErr(p.s.store.DeleteJob(id))
	}
	w.WriteHeader(http.StatusNoContent)
}

// handleRing reports this peer's membership view: the static ring and
// which peers its health loop currently considers dead.
func (p *Peer) handleRing(w http.ResponseWriter, r *http.Request) {
	p.mu.Lock()
	var deadPeers []string
	for peer, d := range p.dead {
		if d {
			deadPeers = append(deadPeers, peer)
		}
	}
	replicas := len(p.replicas)
	p.mu.Unlock()
	sort.Strings(deadPeers)
	writeJSON(w, http.StatusOK, map[string]any{
		"self":     p.cfg.Self,
		"peers":    p.ring.Peers(),
		"dead":     deadPeers,
		"replicas": replicas,
	})
}

// handleMetrics serves the scheduler's counters with the peer layer's
// appended.
func (p *Peer) handleMetrics(w http.ResponseWriter, r *http.Request) {
	p.s.handleMetrics(w, r)
	p.mu.Lock()
	deadN := 0
	for _, d := range p.dead {
		if d {
			deadN++
		}
	}
	replicas := len(p.replicas)
	p.mu.Unlock()
	fmt.Fprintf(w, "sim_peers %d\n", len(p.cfg.Peers))
	fmt.Fprintf(w, "sim_peers_alive %d\n", len(p.cfg.Peers)-deadN)
	fmt.Fprintf(w, "sim_peer_replicas %d\n", replicas)
	fmt.Fprintf(w, "sim_peer_forwards_total %d\n", p.forwards.Load())
	fmt.Fprintf(w, "sim_peer_proxied_reads_total %d\n", p.proxied.Load())
	fmt.Fprintf(w, "sim_peer_misdirected_total %d\n", p.misdirected.Load())
	fmt.Fprintf(w, "sim_peer_takeovers_total %d\n", p.takeovers.Load())
	fmt.Fprintf(w, "sim_peer_replication_errors_total %d\n", p.replErrors.Load())
	fmt.Fprintf(w, "sim_peer_proxy_errors_total %d\n", p.proxyErrors.Load())
	fmt.Fprintf(w, "sim_peer_model_syncs_total %d\n", p.modelSyncs.Load())
}

// pingMissesForDead consecutive failed pings turn a live peer dead; one
// miss is a dropped packet, and acting on it runs the job on two peers.
const pingMissesForDead = 3

// pingLoop polls every other peer's /healthz on the configured cadence.
func (p *Peer) pingLoop() {
	defer p.wg.Done()
	t := time.NewTicker(p.cfg.PingEvery)
	defer t.Stop()
	for {
		select {
		case <-p.stop:
			return
		case <-t.C:
		}
		p.pingPeers()
	}
}

// pingPeers probes every other peer once. The pingMissesForDead-th
// consecutive miss is the alive→dead transition and triggers a takeover
// scan; one success is the dead→alive transition, which just restores
// routing (the returned peer starts empty of the jobs it lost — static
// membership makes no attempt to hand jobs back).
func (p *Peer) pingPeers() {
	for _, peer := range p.cfg.Peers {
		if peer == p.cfg.Self {
			continue
		}
		alive := p.ping(peer)
		died := false
		p.mu.Lock()
		if alive {
			p.misses[peer], p.dead[peer] = 0, false
		} else if p.misses[peer]++; p.misses[peer] == pingMissesForDead {
			p.dead[peer], died = true, true
		}
		p.mu.Unlock()
		if died {
			p.takeover()
		}
	}
}

// ping probes one peer's liveness.
func (p *Peer) ping(peer string) bool {
	client := &http.Client{Timeout: max(p.cfg.PingEvery, 250*time.Millisecond)}
	resp, err := client.Get(peer + "/healthz")
	if err != nil {
		return false
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode < http.StatusInternalServerError
}

// takeover claims every replicated job whose live owner is now this
// peer, re-admitting each into the local scheduler (which resumes from
// the replicated checkpoint). A claim that fails (queue full, duplicate
// race) returns the replica for the next liveness transition to retry.
func (p *Peer) takeover() {
	p.mu.Lock()
	var claim []replica
	for id, rep := range p.replicas {
		if rep.Manifest.ID == "" {
			continue // artifact rows arrived before any manifest; nothing to admit
		}
		if p.ring.OwnerExcluding(id, p.dead) == p.cfg.Self {
			claim = append(claim, rep)
			delete(p.replicas, id)
		}
	}
	p.mu.Unlock()
	sort.Slice(claim, func(i, k int) bool {
		a, b := claim[i].Manifest, claim[k].Manifest
		if !a.SubmittedAt.Equal(b.SubmittedAt) {
			return a.SubmittedAt.Before(b.SubmittedAt)
		}
		return a.ID < b.ID
	})
	for _, rep := range claim {
		if _, ok := p.s.Get(rep.Manifest.ID); ok {
			continue // already local (e.g. the owner forwarded it here earlier)
		}
		if err := p.s.readmit(rep.Manifest, rep.Artifacts); err != nil {
			p.mu.Lock()
			p.replicas[rep.Manifest.ID] = rep
			p.mu.Unlock()
			continue
		}
		p.takeovers.Add(1)
	}
}
