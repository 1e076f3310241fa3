package core

import (
	"math"

	"repro/internal/geom"
)

// searchRNG drives the adaptive descent's random probes: a splitmix64
// stream seeded from the job-level search seed, the schedule level, and
// the exact bits of the orientation the level starts from. Seeding from
// the level-entry state rather than a view index makes every entry
// point — RefineView, RefineStream, RefineStreamLevels — produce
// bit-identical descents for the same view,
// including a resume from a checkpoint journal: the journal round-trips
// the entry orientation exactly, so the resumed level reconstructs the
// identical probe stream. The global math/rand is never touched (the
// replint simclock contract).
type searchRNG struct{ state uint64 }

// splitmix64 increment and finalizer multipliers (Steele, Lea &
// Flood, "Fast splittable pseudorandom number generators").
const (
	smGamma = 0x9e3779b97f4a7c15
	smMul1  = 0xbf58476d1ce4e5b9
	smMul2  = 0x94d049bb133111eb
)

// mix64 is the splitmix64 output finalizer.
func mix64(z uint64) uint64 {
	z ^= z >> 30
	z *= smMul1
	z ^= z >> 27
	z *= smMul2
	z ^= z >> 31
	return z
}

// newSearchRNG derives the probe stream for one (seed, level,
// level-entry orientation) triple.
func newSearchRNG(seed int64, level int, entry geom.Euler) searchRNG {
	s := mix64(uint64(seed) + smGamma)
	s = mix64(s + uint64(level)*smMul1)
	s = mix64(s + math.Float64bits(entry.Theta))
	s = mix64(s + math.Float64bits(entry.Phi))
	s = mix64(s + math.Float64bits(entry.Omega))
	return searchRNG{state: s}
}

func (r *searchRNG) next() uint64 {
	r.state += smGamma
	return mix64(r.state)
}

// offset draws a lattice offset uniformly from [-h, h]. The modulo bias
// is negligible at window-sized h and irrelevant for a search
// heuristic — determinism, not statistical purity, is the contract.
func (r *searchRNG) offset(h int64) int64 {
	return int64(r.next()%uint64(2*h+1)) - h
}
