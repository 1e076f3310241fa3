// Package serve is a combined fixture for the serving layer's replint
// contract: its import path contains "internal/", so the simclock
// analyzer bans wall-clock reads in it — job timestamps must come from
// the manager's injected logical clock — and errsink (which is
// tree-wide) bans the classic HTTP-handler sin of dropping the error
// from a response write. A local ResponseWriter stand-in keeps the
// fixture free of a net/http import, which the source-level loader
// would otherwise have to typecheck wholesale.
package serve

import (
	"errors"
	"time"
)

// ResponseWriter mirrors the error-returning write surface of
// net/http.ResponseWriter.
type ResponseWriter interface {
	Write([]byte) (int, error)
	WriteHeader(statusCode int)
}

// journal mirrors the checkpoint journal's fallible append.
type journal struct{}

func (journal) Level(id string, level int) error { return errors.New("disk full") }

// handleStatusLeaky stamps the response with the wall clock and drops
// the write error — both banned: the timestamp breaks reproducible
// job scheduling, and a client that has gone away looks like success.
func handleStatusLeaky(w ResponseWriter, j journal) {
	stamp := time.Now().UnixNano() // want simclock "time.Now reads the wall clock"
	body := []byte(`{"stamped_at":` + string(rune(stamp)) + `}`)
	w.WriteHeader(200)
	w.Write(body)       // want errsink "w.Write returns an error that is discarded"
	j.Level("job-1", 0) // want errsink "j.Level returns an error that is discarded"
	_ = j.Level("j", 1) // want errsink "error result of j.Level assigned to _"
}

// handleStatusClean is the compliant shape: the logical clock is
// injected, and every fallible write is checked.
func handleStatusClean(w ResponseWriter, j journal, clock func() float64, logf func(string, ...any)) {
	_ = clock()
	if err := j.Level("job-1", 0); err != nil {
		w.WriteHeader(500)
	}
	w.WriteHeader(200)
	if _, err := w.Write([]byte(`{}`)); err != nil {
		logf("write: %v", err)
	}
}

// retryAfter is pure duration arithmetic, which stays legal in a
// simclock package.
func retryAfter(backoff time.Duration) time.Duration {
	return backoff * 2
}
