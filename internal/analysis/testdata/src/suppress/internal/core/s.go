// Package core exercises the suppression machinery: a well-formed
// //replint:allow waives the finding on the next line, a reason-less
// one is itself reported and waives nothing, and one with nothing to
// waive is reported as stale.
package core

import "time"

// Stamp is properly suppressed: analyzer name plus a written reason.
func Stamp() int64 {
	//replint:allow simclock fixture demonstrates a reasoned waiver
	return time.Now().UnixNano()
}

// BadStamp carries a malformed suppression (no reason), which is
// reported as a finding of the pseudo-analyzer "suppression" and does
// not waive the simclock finding below it.
func BadStamp() int64 {
	//replint:allow simclock
	return time.Now().UnixNano()
}

// Epoch carries a well-formed waiver with nothing left to waive — the
// clock read it once covered is gone — so the waiver itself is
// reported as stale.
func Epoch() int64 {
	//replint:allow simclock fixture demonstrates a stale waiver
	return 0
}
