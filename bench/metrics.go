package main

import (
	"math"
	"sort"
	"time"
)

// metricDef declares one reported number. The tables below are the single
// source of the names, units and directions; BENCHMARK.json repeats them
// (with the regression bounds) and TestNamesMatchBenchmarkJSON holds the
// two together.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
}

// endToEnd lists what a user of the system sees. Every workload reports
// every one of them from its untraced run; an "op" is one root step on the
// engine workloads, one job on serve_cold and one request on serve_hot.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"wall_s", "s", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"op_p50_ms", "ms", "lower"},
	{"peak_rss_mb", "MiB", "lower"},
}

// perLayer lists the single-layer numbers of the traced run, prefixed by
// the module they measure. A workload that does not exercise a layer
// reports 0 for it.
var perLayer = []metricDef{
	{"core.new_s", "s", "lower"},
	{"core.resume_ms", "ms", "lower"},

	{"amr.boundary_s", "s", "lower"},
	{"amr.boundary_fills", "count", "lower"},
	{"amr.us_per_boundary_fill", "us", "lower"},
	{"amr.rebuild_s", "s", "lower"},
	{"amr.rebuilds", "count", "lower"},
	{"amr.ms_per_rebuild", "ms", "lower"},
	{"amr.grids_created", "count", "lower"},
	{"amr.other_s", "s", "lower"},
	{"amr.driver_self_s", "s", "lower"},
	{"amr.flux_corr_cells", "count", "lower"},
	{"amr.projected_cells", "count", "lower"},
	{"amr.max_level", "count", "higher"},
	{"amr.grids_final", "count", "lower"},
	{"amr.sdr", "ratio", "higher"},
	{"amr.cell_updates", "count", "lower"},
	{"amr.zone_updates_per_s", "1/s", "higher"},
	{"amr.step_ms_p50", "ms", "lower"},
	{"amr.step_ms_p90", "ms", "lower"},
	{"amr.step_ms_max", "ms", "lower"},
	{"amr.checksum_ms", "ms", "lower"},

	{"hydro.busy_s", "s", "lower"},
	{"hydro.ns_per_cell_update", "ns", "lower"},
	{"hydro.share", "ratio", "lower"},

	{"gravity.busy_s", "s", "lower"},
	{"gravity.solves", "count", "lower"},
	{"gravity.ms_per_solve", "ms", "lower"},
	{"gravity.fft64_ms", "ms", "lower"},
	{"gravity.mg64_ms", "ms", "lower"},
	{"gravity.mg64_vcycles", "count", "lower"},
	{"gravity.mg64_residual", "ratio", "lower"},

	{"chem.busy_s", "s", "lower"},
	{"chem.cell_calls", "count", "lower"},
	{"chem.ns_per_cell_call", "ns", "lower"},

	{"nbody.busy_s", "s", "lower"},
	{"nbody.particle_kicks", "count", "lower"},
	{"nbody.ns_per_kick", "ns", "lower"},

	{"physics.op.hydro_s", "s", "lower"},
	{"physics.op.chemistry_s", "s", "lower"},
	{"physics.op.gravity.solve_s", "s", "lower"},
	{"physics.op.gravity.kick_s", "s", "lower"},
	{"physics.op.expansion_s", "s", "lower"},
	{"physics.op.nbody_s", "s", "lower"},

	{"par.workers", "count", "higher"},
	{"par.wall_1w_s", "s", "lower"},
	{"par.scaling_efficiency", "ratio", "higher"},
	{"par.hydro_speedup", "ratio", "higher"},
	{"par.gravity_speedup", "ratio", "higher"},
	{"par.nbody_speedup", "ratio", "higher"},

	{"clustering.cluster32_ms", "ms", "lower"},

	{"ep128.add_ns", "ns", "lower"},
	{"ep128.overhead_x", "ratio", "lower"},

	{"snapshot.encode_ms", "ms", "lower"},
	{"snapshot.read_ms", "ms", "lower"},
	{"snapshot.raw_mb", "MiB", "lower"},
	{"snapshot.gz_mb", "MiB", "lower"},
	{"snapshot.encode_mb_per_s", "MiB/s", "higher"},

	{"analysis.profile_ms", "ms", "lower"},
	{"analysis.projection_ms", "ms", "lower"},
	{"analysis.clumps_ms", "ms", "lower"},
	{"analysis.slice_ms", "ms", "lower"},
	{"analysis.tiles_ms", "ms", "lower"},

	{"sim.submit_ms_p50", "ms", "lower"},
	{"sim.submit_ms_p95", "ms", "lower"},
	{"sim.evolve_ms_p50", "ms", "lower"},
	{"sim.analysis_ms_p50", "ms", "lower"},
	{"sim.service_tax_ms_p50", "ms", "lower"},
	{"sim.result_fetch_us_p50", "us", "lower"},
	{"sim.job_latency_ms_p90", "ms", "lower"},
	{"sim.job_latency_ms_p95", "ms", "lower"},
	{"sim.executed", "count", "higher"},
	{"sim.cache_hits", "count", "higher"},
	{"sim.coalesced", "count", "lower"},
	{"sim.failed", "count", "lower"},
	{"sim.checkpoints_written", "count", "lower"},
	{"sim.admission_rejected", "count", "lower"},
	{"sim.useful_ratio", "ratio", "higher"},

	{"sim.cache_hit_inproc_ns", "ns", "lower"},
	{"sim.cache_hit_allocs", "count", "lower"},
	{"sim.cache_hit_bytes", "B", "lower"},

	{"sim.http.cache_hit_us_p50", "us", "lower"},
	{"sim.http.cache_hit_us_p95", "us", "lower"},
	{"sim.http.cache_hit_us_p99", "us", "lower"},
	{"sim.http.read_us_p50", "us", "lower"},
	{"sim.http.read_us_p95", "us", "lower"},
	{"sim.http.read_us_p99", "us", "lower"},
	{"sim.http.read_full_us_p50", "us", "lower"},
	{"sim.http.read_range_us_p50", "us", "lower"},
	{"sim.http.read_304_us_p50", "us", "lower"},
	{"sim.http.read_tile_us_p50", "us", "lower"},
	{"sim.http.read_head_us_p50", "us", "lower"},
	{"sim.http.read_cold_us_p50", "us", "lower"},
	{"sim.http.bytes_served", "B", "higher"},
	{"sim.http.not_modified", "count", "higher"},

	{"sim.blobcache.hit_ratio", "ratio", "higher"},
	{"sim.blobcache.evictions", "count", "lower"},
	{"sim.blobcache.disk_reads", "count", "lower"},
	{"sim.blobcache.hot_mb", "MiB", "lower"},
	{"sim.blobcache.dedupe_mb", "MiB", "higher"},

	{"sim.peer.forward_overhead_ms_p50", "ms", "lower"},
	{"sim.peer.forwards", "count", "lower"},
	{"sim.peer.replication_errors", "count", "lower"},

	{"costmodel.estimate_us", "us", "lower"},
	{"costmodel.samples", "count", "higher"},
	{"costmodel.error_ratio_mean", "ratio", "lower"},

	{"diskstore.save_manifest_us_p50", "us", "lower"},
	{"diskstore.save_result_us_p50", "us", "lower"},
	{"diskstore.save_artifact_64k_us_p50", "us", "lower"},
	{"diskstore.save_artifact_dedupe_us_p50", "us", "lower"},
	{"diskstore.save_checkpoint_ms_p50", "ms", "lower"},
	{"diskstore.load_blob_us_p50", "us", "lower"},
	{"diskstore.recover_ms", "ms", "lower"},
	{"diskstore.jobs_on_disk", "count", "lower"},
	{"diskstore.bytes_per_job", "B", "lower"},
	{"diskstore.blob_mb", "MiB", "lower"},
	{"diskstore.checkpoint_mb", "MiB", "lower"},

	{"bench.populate_s", "s", "lower"},
	{"bench.trace_overhead_ratio", "ratio", "lower"},
}

// metrics maps a metric name to its measured value.
type metrics map[string]float64

// median returns the middle of v (the mean of the middle two when len(v)
// is even), or 0 for no samples.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// percentile returns the nearest-rank p-th percentile of v (0 < p <= 100),
// or 0 for no samples.
func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// supportedTail returns the highest of p50/p90/p95/p99 that still has at
// least ten of n samples beyond it — the tail a sample of that size can
// support.
func supportedTail(n int) float64 {
	tail := 50.0
	for _, p := range []float64{90, 95, 99} {
		if float64(n)*(100-p)/100 >= 10 {
			tail = p
		}
	}
	return tail
}

// durs converts durations to float64 in the given unit.
func durs(d []time.Duration, unit time.Duration) []float64 {
	out := make([]float64, len(d))
	for i, x := range d {
		out[i] = float64(x) / float64(unit)
	}
	return out
}

// ratio is a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

const mib = 1 << 20
