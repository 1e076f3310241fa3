// Package tools sits outside internal/, as a command under cmd/ does,
// so the same wall-clock read that clock.go flags is legal here.
package tools

import "time"

// Stamp may read the wall clock: tools are not library code.
func Stamp() int64 {
	return time.Now().UnixNano()
}
