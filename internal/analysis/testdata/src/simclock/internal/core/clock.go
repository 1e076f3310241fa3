// Package core is a simclock fixture: its import path contains
// "internal/", so wall-clock reads and the global rand source are
// banned in it.
package core

import (
	"math/rand"
	"time"
)

// Stamp reads the wall clock — the canonical violation.
func Stamp() int64 {
	return time.Now().UnixNano() // want simclock "time.Now reads the wall clock"
}

// Elapsed measures real elapsed time, which varies run to run.
func Elapsed(start time.Time) time.Duration {
	return time.Since(start) // want simclock "time.Since reads the wall clock"
}

// Draw uses the shared global source, whose state depends on every
// other draw in the process.
func Draw() float64 {
	return rand.Float64() // want simclock "rand.Float64 draws from the global source"
}

// SeededDraw is the compliant shape: an explicitly seeded source, whose
// method calls are exempt.
func SeededDraw(seed int64) float64 {
	r := rand.New(rand.NewSource(seed))
	return r.Float64()
}

// Scale uses only pure time arithmetic, which stays legal.
func Scale(d time.Duration) time.Duration {
	return d * 2
}
