package perf

import (
	"sort"
	"time"

	"repro/internal/amr"
)

// JobMetrics is the JSON-exportable per-run performance snapshot the sim
// job service attaches to every result and enzobatch writes per sweep
// row: the §5 accounting (component seconds, per-operator seconds, flop
// estimate and sustained rate) flattened into plain numbers.
type JobMetrics struct {
	WallSeconds    float64 `json:"wall_seconds"`
	StepsTaken     int     `json:"steps_taken"`
	CellUpdates    int64   `json:"cell_updates"`
	ChemCellCalls  int64   `json:"chem_cell_calls"`
	ParticleKicks  int64   `json:"particle_kicks"`
	GridsCreated   int64   `json:"grids_created"`
	Rebuilds       int     `json:"rebuilds"`
	EstimatedFlops float64 `json:"estimated_flops"`
	SustainedRate  float64 `json:"sustained_rate"`
	// AnalysisSeconds is the wall-clock spent evaluating derived-output
	// requests (slices, projections, profiles, ...) at root-step
	// boundaries — in-flight data products, billed separately from the
	// physics above. It also includes what the sim scheduler does with
	// each product inside that window: the store write (SaveArtifact,
	// fsyncs included on a durable store) and the replica POST to the
	// job's standby. ArtifactCount/ArtifactBytes describe what the job's
	// artifact store retained. Zero for jobs with no output requests;
	// filled by the sim scheduler, not CollectJobMetrics.
	AnalysisSeconds float64 `json:"analysis_seconds,omitempty"`
	ArtifactCount   int     `json:"artifact_count,omitempty"`
	ArtifactBytes   int     `json:"artifact_bytes,omitempty"`
	// ComponentSeconds maps the §5 usage-table rows (hydrodynamics,
	// Poisson solver, ...) to wall seconds.
	ComponentSeconds map[string]float64 `json:"component_seconds,omitempty"`
	// OperatorSeconds maps pipeline operator names (hydro.sweep,
	// gravity.solve, ...) to wall seconds — the Timing.PerOp breakdown.
	OperatorSeconds map[string]float64 `json:"operator_seconds,omitempty"`
}

// OpSeconds returns the per-operator wall-second breakdown plus an
// "other" entry holding the non-negative residual between the total
// wall clock and the sum of operator timings, so the parts always add
// up to (at least) the whole. It returns nil when the run recorded no
// operator breakdown — callers fall back to WallSeconds. The residual
// is summed in sorted-key order: float addition is not associative, so
// map-order summation would make "other" differ by an ulp between a
// live run and the same metrics decoded from the store — and the cost
// model's recovery backfill dedupes by exact sample equality.
func (m JobMetrics) OpSeconds() map[string]float64 {
	if len(m.OperatorSeconds) == 0 {
		return nil
	}
	names := make([]string, 0, len(m.OperatorSeconds))
	for name := range m.OperatorSeconds {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make(map[string]float64, len(names)+1)
	sum := 0.0
	for _, name := range names {
		s := m.OperatorSeconds[name]
		out[name] = s
		sum += s
	}
	if rest := m.WallSeconds - sum; rest > 0 {
		out["other"] = rest
	}
	return out
}

// CollectJobMetrics assembles a JobMetrics from a run's accumulated
// counters, component timings and total evolution wall time.
func CollectJobMetrics(stats amr.Stats, timing amr.Timing, wall time.Duration) JobMetrics {
	m := JobMetrics{
		WallSeconds:    wall.Seconds(),
		StepsTaken:     stats.StepsTaken,
		CellUpdates:    stats.CellUpdates,
		ChemCellCalls:  stats.ChemCellCalls,
		ParticleKicks:  stats.ParticleKicks,
		GridsCreated:   stats.GridsCreated,
		Rebuilds:       stats.RebuildCount,
		EstimatedFlops: EstimateFlops(stats),
	}
	m.SustainedRate = SustainedRate(m.EstimatedFlops, m.WallSeconds)
	comp := map[string]float64{}
	for _, u := range usage(timing) {
		if u.d != 0 {
			comp[u.label] = u.d.Seconds()
		}
	}
	if len(comp) > 0 {
		m.ComponentSeconds = comp
	}
	if len(timing.PerOp) > 0 {
		m.OperatorSeconds = make(map[string]float64, len(timing.PerOp))
		for name, d := range timing.PerOp {
			m.OperatorSeconds[name] = d.Seconds()
		}
	}
	return m
}
