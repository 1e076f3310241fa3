// Package obs stands in for a helper package under internal/ that no
// simulated-clock code is declared in: the scope is all of internal/,
// so a utility that starts reading the clock is a finding where it
// does, whoever calls it.
package obs

import "time"

// Stamp would hand wall time to any caller, simulated or not.
func Stamp() int64 {
	return time.Now().UnixNano() // want simclock "time.Now reads the wall clock"
}
