package sim

// Cost-model glue: features, training, estimates, the error histogram.

import (
	"sync"

	"repro/internal/sim/costmodel"
)

// costQuery maps a resolved configuration onto the cost model's
// feature space: the nominal work unit rootn³×steps the linear
// predictor fits against, and the canonical knob vector the NN
// predictor measures distance in.
func costQuery(r resolved) costmodel.Query {
	feats := map[string]float64{
		"rootn":    float64(r.opts.RootN),
		"maxlevel": float64(r.opts.MaxLevel),
		"workers":  float64(r.opts.Workers),
	}
	if r.opts.Chemistry {
		feats["chemistry"] = 1
	}
	for k, v := range r.opts.Extra {
		feats["knob:"+k] = v
	}
	n := float64(r.opts.RootN)
	return costmodel.Query{Problem: r.problem, Work: n * n * n * float64(r.steps), Features: feats}
}

// trainModel feeds one completed job's metrics into the cost model.
// When the observation is new, the model state is persisted (so
// estimates survive restarts) and broadcast to the peers.
func (s *Scheduler) trainModel(j *Job, res *Result) {
	if res == nil || res.Metrics.WallSeconds <= 0 {
		return
	}
	q := costQuery(j.res)
	changed := s.model.Observe(costmodel.Sample{
		JobID:     j.ID,
		Problem:   q.Problem,
		Features:  q.Features,
		Work:      q.Work,
		Seconds:   res.Metrics.WallSeconds,
		Cells:     float64(res.Metrics.CellUpdates),
		OpSeconds: res.Metrics.OpSeconds(),
	})
	if !changed {
		return
	}
	// A model that just learned re-ranks the speculative backlog and may
	// release its confidence-gated candidates.
	s.repriceSpeculative()
	state := s.model.Encode()
	s.noteStoreErr(s.store.SaveCostModel(state))
	if p := s.peer.Load(); p != nil {
		p.replicateModel(state)
	}
}

// Estimate predicts the cost of req against the recorded job history
// without scheduling anything. Estimate.Samples == 0 means the model
// has no history for the problem and the numbers are vacuous.
func (s *Scheduler) Estimate(req Request) (costmodel.Estimate, error) {
	r, err := resolve(req, s.cfg.slotWorkers(), s.cfg.TotalWorkers)
	if err != nil {
		return costmodel.Estimate{}, err
	}
	return s.model.Estimate(costQuery(r)), nil
}

// CostModelState returns the serialized cost model, for peer
// replication and inspection.
func (s *Scheduler) CostModelState() []byte { return s.model.Encode() }

// CostModelSamples reports how many observations the cost model holds
// across all problems.
func (s *Scheduler) CostModelSamples() int { return s.model.TotalSamples() }

// MergeCostModel unions a replicated peer's cost-model state into the
// local model, persisting on change. Receivers never re-broadcast, so
// replication cannot loop.
func (s *Scheduler) MergeCostModel(state []byte) error {
	changed, err := s.model.Merge(state)
	if err != nil {
		return err
	}
	if changed {
		s.noteStoreErr(s.store.SaveCostModel(s.model.Encode()))
	}
	return nil
}

// estimateBuckets are the upper bounds of the estimate-error histogram:
// the actual/predicted wall-seconds ratio of completed jobs (1 = a
// perfect estimate; the final implicit bucket is +Inf).
var estimateBuckets = [...]float64{0.25, 0.5, 0.8, 1.25, 2, 4}

// estimateErrors is the /metrics histogram of actual/predicted ratios.
type estimateErrors struct {
	mu      sync.Mutex
	buckets [len(estimateBuckets) + 1]int64 // cumulative-on-read; stored per-bucket
	count   int64
	sum     float64
}

// observe scores one finished job's estimate. Vacuous estimates
// (Samples == 0) and degenerate values are skipped — the histogram
// measures the trained model only.
func (e *estimateErrors) observe(est *costmodel.Estimate, actual float64) {
	if est == nil || est.Samples == 0 || est.Seconds <= 0 || actual <= 0 {
		return
	}
	ratio := actual / est.Seconds
	e.mu.Lock()
	defer e.mu.Unlock()
	i := 0
	for i < len(estimateBuckets) && ratio > estimateBuckets[i] {
		i++
	}
	e.buckets[i]++
	e.count++
	e.sum += ratio
}

// snapshot returns the per-bucket counts plus the total count and sum
// of observed ratios.
func (e *estimateErrors) snapshot() (buckets [len(estimateBuckets) + 1]int64, count int64, sum float64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.buckets, e.count, e.sum
}

// EstimateErrorStats reports how many completed jobs had their estimate
// scored and the mean actual/predicted ratio (1 = unbiased).
func (s *Scheduler) EstimateErrorStats() (count int64, meanRatio float64) {
	_, n, sum := s.est.snapshot()
	if n == 0 {
		return 0, 0
	}
	return n, sum / float64(n)
}
