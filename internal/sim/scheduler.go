package sim

// The Scheduler value: configuration, slots, shutdown, lookup, counters.
// Jobs: job.go; entry and eviction: admit.go; a slot's work: execute.go;
// cost-model glue: estimate.go.

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/sim/costmodel"
)

// Config sizes a Scheduler.
type Config struct {
	// MaxConcurrent is the number of jobs evolving at once (default 2).
	MaxConcurrent int
	// TotalWorkers is the par worker budget partitioned evenly across
	// the concurrent slots (0 = runtime.NumCPU). A request that pins
	// its own Workers bypasses the partition.
	TotalWorkers int
	// CacheSize bounds the completed (terminal) jobs retained for
	// dedupe/cache hits, evicted oldest-first (default 64).
	CacheSize int
	// QueueDepth bounds the jobs waiting for a slot; Submit fails once
	// the backlog is full (default 256).
	QueueDepth int
	// ArtifactBytes bounds each job's derived-output artifact store;
	// oldest artifacts are evicted first once a job exceeds it (default
	// DefaultArtifactBytes).
	ArtifactBytes int
	// ArtifactCount bounds the artifacts a job retains (default
	// DefaultArtifactCount).
	ArtifactCount int
	// HotBytes bounds the shared in-memory blob hot tier fronting the
	// store's artifact payloads (default DefaultHotTierBytes).
	HotBytes int64
	// Store is the persistence layer (nil = NewMemStore, which lasts as
	// long as the value; diskstore.New survives a process restart). At
	// startup the scheduler recovers its completed results/artifacts as
	// cache hits and resumes interrupted jobs from their latest
	// checkpoint; Drain checkpoints running jobs before exit.
	Store Store
	// CheckpointEvery writes a restart checkpoint after every N-th root
	// step of a running job (0 = no step cadence). Neither cadence writes
	// one at the job's last root step: its result supersedes it.
	CheckpointEvery int
	// CheckpointTime writes a restart checkpoint whenever a job's code
	// time crosses a multiple of this interval (0 = no time cadence).
	CheckpointTime float64
	// MaxJobSeconds is the admission bound: a submission whose cost
	// estimate exceeds it is rejected with an AdmissionError carrying
	// the estimate (0 = no bound). Only estimates backed by at least one
	// observed sample reject — an untrained model admits everything.
	MaxJobSeconds float64
	// TenantWeights assigns fair-share weights to named tenants; an
	// unlisted tenant (including the implicit "default") weighs 1. A
	// tenant with weight w receives w shares of the dispatch bandwidth
	// under contention.
	TenantWeights map[string]float64
	// Clock is the scheduler's time source (nil = time.Now) — the
	// injected seam the deterministic queue-fairness and deadline tests
	// drive with a fake clock.
	Clock func() time.Time
	// Speculate enables speculative execution: when the QoS queue is
	// empty and slots sit idle, the scheduler pre-warms the result cache
	// with candidates from announced sweeps (POST /sweeps) and submission
	// lineage, preempting them at the next root-step boundary the moment
	// demand work arrives. See speculate.go.
	Speculate bool
	// SpeculateSlots bounds concurrent speculative executions (default 1
	// when Speculate is set). Speculation only uses idle capacity: a
	// speculative run also requires a free scheduler slot.
	SpeculateSlots int
	// SpeculateBudgetSeconds caps each tenant's accumulated speculative
	// wall seconds for the process lifetime (0 = no cap).
	SpeculateBudgetSeconds float64
	// SpeculateMaxSeconds skips any candidate whose cost estimate
	// exceeds it (0 = no bound). Only estimates backed by at least one
	// sample gate — an untrained model skips nothing.
	SpeculateMaxSeconds float64
}

func (c Config) withDefaults() Config {
	if c.Store == nil {
		c.Store = NewMemStore()
	}
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = 2
	}
	if c.TotalWorkers <= 0 {
		c.TotalWorkers = runtime.NumCPU()
	}
	if c.CacheSize <= 0 {
		c.CacheSize = 64
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 256
	}
	if c.ArtifactBytes <= 0 {
		c.ArtifactBytes = DefaultArtifactBytes
	}
	if c.ArtifactCount <= 0 {
		c.ArtifactCount = DefaultArtifactCount
	}
	if c.HotBytes <= 0 {
		c.HotBytes = DefaultHotTierBytes
	}
	if c.Clock == nil {
		c.Clock = time.Now
	}
	if c.Speculate && c.SpeculateSlots <= 0 {
		c.SpeculateSlots = 1
	}
	return c
}

// slotWorkers is the per-job par budget of a scheduler slot: the total
// budget split evenly over the concurrent slots, never below one.
func (c Config) slotWorkers() int {
	w := c.TotalWorkers / c.MaxConcurrent
	if w < 1 {
		w = 1
	}
	return w
}

// Stats aggregates scheduler counters for /metrics.
type Stats struct {
	Submitted int64 `json:"submitted"`  // Submit calls accepted
	Coalesced int64 `json:"coalesced"`  // submissions attached to a live duplicate
	CacheHits int64 `json:"cache_hits"` // submissions answered from a completed job
	Executed  int64 `json:"executed"`   // evolutions actually run
	Succeeded int64 `json:"succeeded"`
	Failed    int64 `json:"failed"`
	Cancelled int64 `json:"cancelled"`
	Queued    int   `json:"queued"`  // current
	Running   int   `json:"running"` // current
	Cached    int   `json:"cached"`  // completed results retained (Done only)
	// Durability counters: jobs rehydrated from the store at startup
	// (Resumed of which re-queued to continue from a checkpoint),
	// checkpoints written, and terminal records evicted from the cache
	// (and deleted from the store) by the CacheSize bound.
	Recovered      int64 `json:"recovered"`
	Resumed        int64 `json:"resumed"`
	Checkpoints    int64 `json:"checkpoints"`
	CacheEvictions int64 `json:"cache_evictions"`
	// AdmissionRejected counts submissions refused because their cost
	// estimate exceeded Config.MaxJobSeconds.
	AdmissionRejected int64 `json:"admission_rejected"`
}

// Scheduler runs simulation jobs on a bounded set of slots, deduping
// identical requests and caching completed results. See the package
// comment for the full contract.
type Scheduler struct {
	cfg     Config
	store   Store
	blobs   *BlobCache
	baseCtx context.Context
	stop    context.CancelFunc
	fq      *fairQueue
	wg      sync.WaitGroup

	// model is the cost predictor trained on completed jobs' metrics;
	// it has its own lock and is persisted through the store, so
	// estimates survive restarts.
	model *costmodel.Model

	// spec is the speculative-execution planner's state (idle unless
	// Config.Speculate); spend is the per-tenant historical
	// wall-second ledger, demand and speculative classes separate.
	spec  *speculator
	spend *spendLedger

	// Artifact-serving counters (hot read path: updated atomically, not
	// under s.mu).
	bytesServed atomic.Int64
	notModified atomic.Int64

	// est is the estimate-error histogram: the actual/predicted wall
	// seconds ratio of every completed job that had a non-vacuous
	// estimate, exported on /metrics.
	est estimateErrors

	// peer is the attached Peer, if any, that job state is replicated
	// through. Atomic because a Peer attaches after the slots start; nil
	// (the single-node case) costs one atomic load per replication site.
	peer atomic.Pointer[Peer]

	mu       sync.Mutex
	closed   bool
	draining bool // Drain in progress: interrupted jobs checkpoint before the slots exit
	jobs     map[string]*Job
	order    []string // submit order of live+retained job IDs
	stats    Stats
	start    time.Time
	storeErr error
}

// NewScheduler starts a scheduler with cfg's slots running. It first
// recovers the store's jobs: completed results and artifacts rehydrate
// the cache (so identical submissions are cache hits across restarts),
// and interrupted jobs are re-queued to resume from their latest
// checkpoint. Recovery problems never prevent startup; inspect them
// with RecoverState.
func NewScheduler(cfg Config) *Scheduler {
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	s := &Scheduler{
		cfg:     cfg,
		store:   cfg.Store,
		blobs:   NewBlobCache(cfg.Store, cfg.HotBytes),
		baseCtx: ctx,
		stop:    cancel,
		fq:      newFairQueue(cfg.QueueDepth, cfg.TenantWeights, cfg.Clock),
		model:   costmodel.New(),
		spend:   newSpendLedger(),
		jobs:    make(map[string]*Job),
		spec:    &speculator{dead: map[string]bool{}},
		start:   cfg.Clock(),
	}
	if cfg.Speculate {
		s.fq.specCtx, s.fq.specSlots = ctx, cfg.SpeculateSlots // before the first pop
	}
	// Rehydrate the cost model before recovery: recovered Done jobs then
	// only backfill observations the persisted state is missing.
	state, err := s.store.LoadCostModel()
	if err == nil && len(state) > 0 {
		err = s.model.Decode(state)
	}
	s.noteStoreErr(err)
	// The slots are the only executors: demand work and, when nothing is
	// queued, the queue's speculative class both reach execute from here.
	for i := 0; i < cfg.MaxConcurrent; i++ {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			for {
				j, ok := s.fq.pop()
				if !ok {
					return
				}
				s.execute(j)
			}
		}()
	}
	s.recover()
	return s
}

// now is the scheduler's injected time source (Config.Clock).
func (s *Scheduler) now() time.Time { return s.cfg.Clock() }

// replicaPeer returns the Peer that j's state is replicated through: nil
// when none is attached, and nil for a speculative job, which has no
// submitter and whose manifest, checkpoints and artifacts stay local.
func (s *Scheduler) replicaPeer(j *Job) *Peer {
	if j.speculative {
		return nil
	}
	return s.peer.Load()
}

// Config returns the scheduler's effective (default-filled) configuration.
func (s *Scheduler) Config() Config { return s.cfg }

// SlotWorkers returns the par budget a job receives when its request
// doesn't pin one.
func (s *Scheduler) SlotWorkers() int { return s.cfg.slotWorkers() }

// Close stops accepting submissions, cancels queued and running jobs and
// waits for the slots to drain. Completed results remain readable. Jobs
// cut short by Close keep their non-terminal manifests (plus any
// cadence checkpoints already written), so the next scheduler on the
// same store treats them exactly like a process kill and resumes them;
// use Drain to also checkpoint the running jobs' current state first.
func (s *Scheduler) Close() { s.shutdown(false) }

// Drain is the graceful shutdown: it stops accepting submissions, lets
// every running job reach its next root-step boundary, writes a final
// restart checkpoint for each, records them as interrupted, and waits
// for the slots to exit. A following NewScheduler on the same store
// resumes the drained jobs from exactly where they stopped.
func (s *Scheduler) Drain() { s.shutdown(true) }

func (s *Scheduler) shutdown(drain bool) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.draining = drain
	s.mu.Unlock()
	// Order matters: cancel first so the slots fast-drain the backlog
	// (a cancelled baseCtx makes each queued execution exit at its first
	// context check), then close the queue. Submit cannot race the
	// close — it checks s.closed under s.mu before pushing, and shutdown
	// held that lock first; after close the slots keep draining whatever
	// is still queued, then exit. Running speculations derive from
	// baseCtx too: they checkpoint at their next root-step boundary.
	s.stop()
	s.fq.close()
	s.wg.Wait()
	s.noteStoreErr(s.store.Close())
}

// Get returns the job with the given ID.
func (s *Scheduler) Get(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Jobs lists all retained jobs in submit order.
func (s *Scheduler) Jobs() []*Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Job, 0, len(s.order))
	for _, id := range s.order {
		if j, ok := s.jobs[id]; ok {
			out = append(out, j)
		}
	}
	return out
}

// Cancel stops the job with the given ID (queued jobs never start;
// running jobs stop at the next root-step boundary). It reports whether
// a live job was found.
func (s *Scheduler) Cancel(id string) bool {
	j, ok := s.Get(id)
	if !ok {
		return false
	}
	j.mu.Lock()
	switch {
	case j.state.terminal():
		j.mu.Unlock()
		return false
	case j.state == Queued:
		// Atomic with the state check: a slot claiming the job takes
		// j.mu to move it to Running, so it cannot slip in between.
		j.finishLocked(Cancelled, nil, fmt.Errorf("sim: job %s cancelled while queued", id))
		j.mu.Unlock()
		// Excise the queued entry so it stops occupying depth and the
		// tenant gauges; if a slot already popped it, the terminal check
		// in execute skips it anyway.
		s.fq.remove(id)
		s.settle(j, Cancelled, func(st *Stats) { st.Cancelled++ })
		return true
	default:
		cancel := j.cancel
		j.userCancelled = true
		j.mu.Unlock()
		if cancel != nil {
			cancel()
		}
		return true
	}
}

// Stats snapshots the scheduler counters.
func (s *Scheduler) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	for _, j := range s.jobs {
		switch j.State() {
		case Queued:
			st.Queued++
		case Running:
			st.Running++
		case Done:
			st.Cached++
		}
	}
	return st
}

// Uptime returns how long the scheduler has been running.
func (s *Scheduler) Uptime() time.Duration { return s.now().Sub(s.start) }

// noteStoreErr records a persistence failure (the first one wins) for
// RecoverState/healthz visibility; nil is ignored, so call sites wrap
// the store call directly.
func (s *Scheduler) noteStoreErr(err error) {
	if err == nil {
		return
	}
	s.mu.Lock()
	if s.storeErr == nil {
		s.storeErr = err
	}
	s.mu.Unlock()
}

// count updates the terminal-outcome counters and re-applies the cache
// bound (a completing job can push the retained-terminal count over it).
func (s *Scheduler) count(f func(*Stats)) {
	s.mu.Lock()
	f(&s.stats)
	doomed := s.evictLocked()
	s.mu.Unlock()
	s.reap(doomed)
}

// QueueStats reports the dispatch backlog: total queued jobs and the
// per-tenant breakdown (tenants with nothing queued are omitted).
func (s *Scheduler) QueueStats() (depth int, perTenant map[string]int) {
	return s.fq.snapshot()
}
