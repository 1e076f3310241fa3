// Package core is the obsevent fixture: event emission belongs to the
// job/level lifecycle layer, never inside //repro:hotpath kernels.
// Counters stay allowed in kernels (they are one atomic add); Emit —
// whether the package function or the EventLog method — is a finding.
package core

import "obs"

var evals obs.Counter

var noFields [obs.EventFieldsMax]obs.EventField

// MatchKernel is compliant: a counter bump per evaluation, no events.
//
//repro:hotpath
func MatchKernel(xs []float64) float64 {
	var best float64
	for i := 0; i < len(xs); i++ {
		evals.Inc()
		if xs[i] > best {
			best = xs[i]
		}
	}
	return best
}

// ChattyKernel narrates its inner loop with events — the exact misuse
// the analyzer bans: per-candidate emission would build a record and
// take the ring lock millions of times per refinement pass.
//
//repro:hotpath
func ChattyKernel(xs []float64) float64 {
	var best float64
	for i := 0; i < len(xs); i++ {
		obs.Emit("candidate", "", 0, 0, noFields) // want hotpathalloc "obs event emission in a hot path"
		if xs[i] > best {
			best = xs[i]
		}
	}
	return best
}

// MethodKernel emits through an EventLog handle instead of the package
// function; same contract, same finding.
//
//repro:hotpath
func MethodKernel(l *obs.EventLog, xs []float64) float64 {
	var best float64
	for _, v := range xs {
		l.Emit("candidate", "", 0, 0, noFields) // want hotpathalloc "obs event emission in a hot path"
		if v > best {
			best = v
		}
	}
	return best
}

// LevelDone is the lifecycle layer: not tagged, so emitting here is
// exactly what events are for.
func LevelDone(level int, ts float64) {
	obs.Emit("level_end", "job-000001", level, ts, noFields)
}
