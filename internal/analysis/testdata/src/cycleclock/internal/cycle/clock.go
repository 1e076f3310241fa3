// Package cycle is a simclock fixture for the outer-loop driver: its
// import path contains "internal/", so wall-clock reads and the global
// rand source are banned there just as in the refinement core, because
// the multi-cycle resume contract is bit-identity.
package cycle

import (
	"math/rand"
	"time"
)

// Stamp reads the wall clock — the canonical violation.
func Stamp() int64 {
	return time.Now().UnixNano() // want simclock "time.Now reads the wall clock"
}

// Jitter draws from the process-global source, whose state depends on
// every other draw in the process.
func Jitter() float64 {
	return rand.Float64() // want simclock "rand.Float64 draws from the global source"
}

// SeededJitter is the compliant randomness shape: an explicitly seeded
// source, whose method calls are exempt.
func SeededJitter(seed int64) float64 {
	r := rand.New(rand.NewSource(seed))
	return r.Float64()
}

// TickOf is the injectable-clock shape the production driver uses: the
// caller supplies the clock reading, so the function stays pure.
func TickOf(clock func() float64) float64 {
	return clock() * 2
}
