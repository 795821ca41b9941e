// Package sim is the long-lived simulation job service: a bounded
// scheduler that runs registered problems (internal/problems) through the
// core façade, partitions the global par worker budget across concurrent
// jobs, dedupes identical submissions onto a single execution, caches
// completed results keyed by a canonical hash of the resolved
// configuration, and streams per-job progress over channels.
//
// Persistence is pluggable behind the Store interface, one contract
// for every implementation: completed results and artifacts are
// recovered as cache hits, running jobs write restart checkpoints on an
// OutputPlan cadence (Config.CheckpointEvery/CheckpointTime), startup
// recovery resumes interrupted jobs from their latest checkpoint with
// bitwise-identical final answers, and Drain checkpoints every running
// job before shutdown. The default memory store holds all of it for the
// life of the value; a disk store (internal/sim/diskstore, `enzogo
// serve -data dir`) holds it across process restarts.
//
// Two front ends drive it: `enzogo serve` exposes the scheduler as an
// HTTP/JSON API (see Handler) and `enzobatch` pushes sweep files through
// it in-process. Both produce bitwise-comparable results: a job's result
// hash is amr.(*Hierarchy).Checksum after evolution, the same digest the
// golden regression suite pins, so a service answer can be verified
// against a direct core.New run.
//
// Embedding the scheduler in another binary:
//
//	sched := sim.NewScheduler(sim.Config{MaxConcurrent: 4})
//	defer sched.Close()
//	job, err := sched.Submit(sim.Request{Problem: "sedov", Steps: 10})
//	for p := range job.Watch() {
//		log.Printf("step %d t=%g", p.Step, p.Time)
//	}
//	res, err := job.Result()
package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"maps"
	"math"

	"repro/internal/analysis"
	"repro/internal/problems"
)

// Request describes one simulation job. Zero-valued fields fall back to
// the problem spec's defaults (the same semantics as unset enzogo flags);
// Chemistry is a pointer so JSON can distinguish "off" from "unset".
type Request struct {
	// Problem is the registry name (enzogo -list). Required.
	Problem string `json:"problem"`
	// Steps bounds the run to this many root steps (default 10).
	Steps int `json:"steps,omitempty"`
	// MaxTime stops the run once code time reaches it (0 = no bound).
	MaxTime float64 `json:"max_time,omitempty"`

	RootN int `json:"rootn,omitempty"`
	// MaxLevel overrides the spec default when non-nil; a pointer
	// because an explicit 0 ("no refinement") is a meaningful, distinct
	// configuration. Use sim.Int.
	MaxLevel *int `json:"maxlevel,omitempty"`
	// Seed overrides the spec default when non-nil (pointer for the
	// same reason: seed 0 is a valid explicit choice). Use sim.Int64.
	Seed   *int64 `json:"seed,omitempty"`
	Solver string `json:"solver,omitempty"`
	// Chemistry overrides the spec default when non-nil.
	Chemistry *bool `json:"chemistry,omitempty"`
	// Workers pins this job's par worker budget; 0 lets the scheduler
	// assign the per-slot share of its total budget. A resource hint, not
	// identity: no bit of the answer depends on it (see Opts.Canonical).
	Workers int `json:"workers,omitempty"`
	// Knobs are the problem-specific -p key=value numeric knobs.
	Knobs map[string]float64 `json:"knobs,omitempty"`
	// Outputs declares the derived data products the job evaluates at
	// root-step boundaries into its artifact store (served under
	// /jobs/{id}/artifacts). Order matters: it numbers the artifacts and
	// is part of the job's identity.
	Outputs []analysis.OutputRequest `json:"outputs,omitempty"`

	// Tenant names the fair-share accounting bucket this submission
	// bills to (default "default"). Scheduling metadata only: it is NOT
	// part of the job's canonical identity, so identical configurations
	// from different tenants still coalesce onto a single execution.
	Tenant string `json:"tenant,omitempty"`
	// DeadlineSeconds is an optional QoS hint: the submitter wants the
	// result within this many seconds of submission. A queued job whose
	// slack (deadline minus predicted runtime) runs out is boosted ahead
	// of the fair-share order, within the starvation-freedom bound. Like
	// Tenant, it is scheduling metadata, not job identity; a coalesced
	// resubmission may tighten — never relax — the deadline.
	DeadlineSeconds float64 `json:"deadline_seconds,omitempty"`
}

// DefaultSteps is the root-step budget of a Request that sets none.
const DefaultSteps = 10

// Int returns a pointer to v, for Request fields where an explicit zero
// differs from "use the spec default".
func Int(v int) *int { return &v }

// Int64 is Int for the Seed field.
func Int64(v int64) *int64 { return &v }

// Merge overlays over onto base: fields set in over win, unset (zero)
// fields keep base's value, and knob maps merge key-wise. This is the
// sweep-file semantics of enzobatch, where a file-level defaults block is
// merged under every job row.
func Merge(base, over Request) Request {
	out := base
	if over.Problem != "" {
		out.Problem = over.Problem
	}
	if over.Steps != 0 {
		out.Steps = over.Steps
	}
	if over.MaxTime != 0 {
		out.MaxTime = over.MaxTime
	}
	if over.RootN != 0 {
		out.RootN = over.RootN
	}
	if over.MaxLevel != nil {
		out.MaxLevel = over.MaxLevel
	}
	if over.Seed != nil {
		out.Seed = over.Seed
	}
	if over.Solver != "" {
		out.Solver = over.Solver
	}
	if over.Chemistry != nil {
		out.Chemistry = over.Chemistry
	}
	if over.Workers != 0 {
		out.Workers = over.Workers
	}
	if len(over.Knobs) > 0 {
		merged := maps.Clone(base.Knobs)
		if merged == nil {
			merged = map[string]float64{}
		}
		maps.Copy(merged, over.Knobs)
		out.Knobs = merged
	}
	if over.Tenant != "" {
		out.Tenant = over.Tenant
	}
	if over.DeadlineSeconds != 0 {
		out.DeadlineSeconds = over.DeadlineSeconds
	}
	if len(over.Outputs) > 0 {
		// A non-empty output list replaces the base's wholesale (order
		// is identity), unlike the key-wise knob merge. An explicit
		// empty list is indistinguishable from unset — a row cannot
		// clear the defaults' outputs, only override them.
		out.Outputs = over.Outputs
	}
	return out
}

// resolved is a Request normalized against its problem spec: the full
// Opts the builder will see plus the run bounds. Its key is the job's
// dedupe/cache identity.
type resolved struct {
	problem string
	opts    problems.Opts
	steps   int
	maxTime float64
	// outputs is the normalized derived-output list; part of the job
	// identity because it determines which artifacts exist.
	outputs []analysis.OutputRequest
}

// resolve validates req and normalizes it against the spec defaults,
// assigning slotWorkers as the par budget when the request doesn't pin
// one; a pinned budget may not exceed maxWorkers (the scheduler's total
// budget — otherwise one request could oversubscribe the machine the
// slot partition exists to protect). Knob names and the solver are
// checked here too, so a bad request fails at submit time (HTTP 400),
// not as a dead job.
func resolve(req Request, slotWorkers, maxWorkers int) (resolved, error) {
	spec, ok := problems.Get(req.Problem)
	if !ok {
		return resolved{}, fmt.Errorf("sim: unknown problem %q (registered: %v)", req.Problem, problems.Names())
	}
	o := spec.Defaults
	o.Extra = maps.Clone(o.Extra)
	if req.RootN != 0 {
		o.RootN = req.RootN
	}
	if req.MaxLevel != nil {
		o.MaxLevel = *req.MaxLevel
	}
	if req.Chemistry != nil {
		o.Chemistry = *req.Chemistry
	}
	if req.Seed != nil {
		o.Seed = *req.Seed
	}
	if req.Solver != "" {
		if _, err := problems.ParseSolver(req.Solver); err != nil {
			return resolved{}, err
		}
		o.Solver = req.Solver
	}
	if err := spec.CheckKnobs(req.Knobs); err != nil {
		return resolved{}, err
	}
	if len(req.Knobs) > 0 {
		if o.Extra == nil {
			o.Extra = map[string]float64{}
		}
		maps.Copy(o.Extra, req.Knobs)
	}
	if req.Workers > maxWorkers {
		return resolved{}, fmt.Errorf("sim: workers %d exceeds the service budget %d", req.Workers, maxWorkers)
	}
	o.Workers = req.Workers
	if o.Workers <= 0 {
		o.Workers = slotWorkers
	}
	outputs, err := validateOutputs(req.Outputs)
	if err != nil {
		return resolved{}, err
	}
	// maxTime + 0 folds -0 to 0: one spelling of "no time bound" per key.
	r := resolved{problem: req.Problem, opts: o, steps: req.Steps, maxTime: req.MaxTime + 0, outputs: outputs}
	if r.steps <= 0 {
		r.steps = DefaultSteps
	}
	if r.steps > MaxSteps {
		return resolved{}, fmt.Errorf("sim: steps %d exceeds the service cap %d", r.steps, MaxSteps)
	}
	// Resource sanity before a slot commits memory to the job: a single
	// oversized request must fail at submit, not OOM the whole service
	// (the panic recovery around evolution cannot catch an OOM kill).
	if o.RootN < 4 || o.RootN&(o.RootN-1) != 0 || o.RootN > MaxRootN {
		return resolved{}, fmt.Errorf("sim: rootn must be a power of two in [4,%d], got %d", MaxRootN, o.RootN)
	}
	if o.MaxLevel < 0 || o.MaxLevel > MaxMaxLevel {
		return resolved{}, fmt.Errorf("sim: maxlevel must be in [0,%d], got %d", MaxMaxLevel, o.MaxLevel)
	}
	if req.MaxTime < 0 || math.IsNaN(req.MaxTime) || math.IsInf(req.MaxTime, 0) {
		return resolved{}, fmt.Errorf("sim: max_time must be a finite value >= 0, got %g", req.MaxTime)
	}
	// QoS metadata sanity: these never enter the identity hash, but a
	// malformed value must still fail at submit time, not poison the
	// queue accounting or the per-tenant metric labels.
	if req.DeadlineSeconds < 0 || math.IsNaN(req.DeadlineSeconds) || math.IsInf(req.DeadlineSeconds, 0) {
		return resolved{}, fmt.Errorf("sim: deadline_seconds must be a finite value >= 0, got %g", req.DeadlineSeconds)
	}
	if len(req.Tenant) > MaxTenantLen {
		return resolved{}, fmt.Errorf("sim: tenant name exceeds %d bytes", MaxTenantLen)
	}
	return r, nil
}

// MaxTenantLen caps the tenant field: tenant names label per-tenant
// queue gauges on /metrics, so they must stay bounded.
const MaxTenantLen = 64

// MaxSteps caps a single job's root-step budget so one request cannot
// monopolize a service slot indefinitely.
const MaxSteps = 100000

// MaxRootN and MaxMaxLevel cap a job's grid dimensions. 256³ root cells
// across ~10 float64 fields is ~1.3 GB before refinement — already the
// outer edge of what one service slot should commit to; anything larger
// is a provisioning decision, not a request.
const (
	MaxRootN    = 256
	MaxMaxLevel = 12
)

// key returns the canonical job identity: a short sha256 digest of the
// problem name, the resolved physics (problems.Opts.Canonical — not the
// worker budget, so every peer derives one ID per body), the run bounds,
// and the normalized output-request list — two jobs that differ only in
// which data products they collect are distinct jobs, or a coalesced
// submission could come back missing the artifacts it asked for.
func (r resolved) key() string {
	s := fmt.Sprintf("problem=%s;%s;steps=%d;maxtime=%g;outputs=%s",
		r.problem, r.opts.Canonical(), r.steps, r.maxTime,
		analysis.CanonicalOutputs(r.outputs))
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:8])
}
