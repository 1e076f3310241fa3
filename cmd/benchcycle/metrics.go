package main

// The benchmark's vocabulary: workload names, end-to-end metrics with
// their regression bounds, and per-layer metrics. BENCHMARK.json at the
// repository root declares the same names; the package test pins the
// two against each other so neither can drift alone.

// metricDef declares one metric. Bound is the share of the parent's
// median by which an end-to-end metric may worsen before a change
// counts as a regression (per-layer metrics carry none).
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
}

// endToEnd are the metrics a user of the system sees, reported by an
// untraced run of every workload.
//
// cycle_s is the wall time of the fastest unit of the outer loop the
// run observed (a tenth of the way up from the fastest when there are
// ten or more, see fastest): a refine→reconstruct→FSC cycle of a served job on
// cycle_*, a reconstruct+FSC+map-I/O pass on recon_fsc (the part of a
// cycle that is not refinement), a job's submit→terminal latency on
// jobs_small. views_per_s is the views one unit of service carries (a
// whole job on cycle_* and jobs_small, a pass on recon_fsc) over the
// wall time of the fastest such unit, so per-job fixed costs — dataset
// build, initial reference, admission, terminal record — show there and
// not in cycle_s. setup_s is the fastest of the run's set-ups.
//
// Every bound is the widest the contract allows. On the shared 2-core
// host the benchmark was defined on, ten runs of one commit spread
// (quartile distance over median) by 2–11 % on the timings with fast-end
// estimators (13–20 % when a slow phase of the host covers part of the
// set), and by 15–28 % with medians; a tighter bound would reject
// unchanged code.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"cycle_s", "s", "lower", 0.25},
	{"views_per_s", "views/s", "higher", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.25},
}

// perLayer are the metrics of single layers, reported by a traced run.
// A metric whose layer does no work on a workload reads 0 there (no
// core.* time on recon_fsc is the point of that workload).
var perLayer = []metricDef{
	{"workload.build_s", "s", "lower", 0},
	{"fourier.ref_dft_s", "s", "lower", 0},
	{"fourier.view_fft_us", "us", "lower", 0},
	{"fourier.sample_cut_us", "us", "lower", 0},
	{"core.prepare_view_us", "us", "lower", 0},
	{"core.level0_s", "s", "lower", 0},
	{"core.level1_s", "s", "lower", 0},
	{"core.level2_s", "s", "lower", 0},
	{"core.level3_s", "s", "lower", 0},
	{"core.level0_s.c0", "s", "lower", 0},
	{"core.level1_s.c0", "s", "lower", 0},
	{"core.level2_s.c0", "s", "lower", 0},
	{"core.level3_s.c0", "s", "lower", 0},
	{"core.level0_s.c1plus", "s", "lower", 0},
	{"core.level1_s.c1plus", "s", "lower", 0},
	{"core.level2_s.c1plus", "s", "lower", 0},
	{"core.level3_s.c1plus", "s", "lower", 0},
	{"core.evals_per_view", "count", "lower", 0},
	{"core.center_evals_per_view", "count", "lower", 0},
	{"core.slides_per_view", "count", "lower", 0},
	{"core.descent_moves_per_view", "count", "lower", 0},
	{"core.ns_per_eval", "ns", "lower", 0},
	{"core.match_ns", "ns", "lower", 0},
	{"core.match_flops", "flop", "lower", 0},
	{"core.match_bytes", "B", "lower", 0},
	{"core.eval_overhead_x", "ratio", "lower", 0},
	{"core.cut_cache_hit_rate", "ratio", "higher", 0},
	{"core.allocs_per_view", "count", "lower", 0},
	{"core.alloc_mb_per_view", "MB", "lower", 0},
	{"core.share", "ratio", "higher", 0},
	{"reconstruct.full_s", "s", "lower", 0},
	{"reconstruct.halves_s", "s", "lower", 0},
	{"reconstruct.insert_us_per_view", "us", "lower", 0},
	{"reconstruct.finish_s", "s", "lower", 0},
	{"reconstruct.digest_ms", "ms", "lower", 0},
	{"fsc.compute_s", "s", "lower", 0},
	{"volume.map_write_ms", "ms", "lower", 0},
	{"volume.map_read_ms", "ms", "lower", 0},
	{"volume.map_bytes", "B", "lower", 0},
	{"cycle.self_s", "s", "lower", 0},
	{"serve.submit_ms", "ms", "lower", 0},
	{"serve.job_wall_s", "s", "lower", 0},
	{"serve.job_p95_ms", "ms", "lower", 0},
	{"serve.jobs_per_s", "1/s", "higher", 0},
	{"serve.journal_append_ms", "ms", "lower", 0},
	{"serve.journal_bytes", "B", "lower", 0},
	{"serve.journal_bytes_per_level", "B", "lower", 0},
	{"serve.replay_s", "s", "lower", 0},
	{"serve.overhead_s", "s", "lower", 0},
	{"scale.speedup_vs_p1", "ratio", "higher", 0},
	{"quality.fsc05_A", "A", "lower", 0},
	{"quality.ang_err_deg", "deg", "lower", 0},
	{"trace.budget_coverage", "ratio", "higher", 0},
	{"trace.overhead_frac", "ratio", "lower", 0},
}

// qualityBound is the absolute amount (Å, degrees) by which a
// quality.* metric may worsen before -compare calls it worse. Quality
// is deterministic for a seed, so any movement is a changed trajectory,
// not noise.
const qualityBound = 0.05

// exactMetrics are per-layer counts that repeat exactly for a seed on
// the cycle_* workloads; -compare reports whether they moved.
var exactMetrics = []string{"core.evals_per_view", "serve.journal_bytes"}

// declared reports whether name is one of the benchmark's metrics.
func declared(name string) bool {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if d.Name == name {
				return true
			}
		}
	}
	return false
}
