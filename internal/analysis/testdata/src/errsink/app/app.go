// Package app is an errsink fixture: every way of silently dropping an
// error return, next to the excluded idioms.
package app

import (
	"bytes"
	"fmt"
	"os"
)

// Flush discards errors three ways: bare statement, blank single
// assign, blank in a multi-value assign.
func Flush(f *os.File, data []byte) int {
	f.Close()             // want errsink "f.Close returns an error that is discarded"
	_ = f.Sync()          // want errsink "error result of f.Sync assigned to _"
	n, _ := f.Write(data) // want errsink "error result of f.Write assigned to _"
	return n
}

// Report exercises the pragmatic exclusions: stdout/stderr printing and
// in-memory writers cannot fail meaningfully, and a directly deferred
// close on a read path is accepted idiom.
func Report(f *os.File) string {
	defer f.Close()
	var buf bytes.Buffer
	buf.WriteString("report")
	fmt.Println("done")
	fmt.Fprintf(os.Stderr, "done\n")
	return buf.String()
}

// Cleanup defers and starts function literals: only a direct deferred
// call is exempt, so the errors their bodies drop are findings.
func Cleanup(f *os.File, path string) {
	defer func() { _ = f.Close() }() // want errsink "error result of f.Close assigned to _"
	defer func() {
		os.Remove(path) // want errsink "os.Remove returns an error that is discarded"
	}()
	go func() {
		f.Sync() // want errsink "f.Sync returns an error that is discarded"
	}()
}

// Save checks everything — the compliant shape.
func Save(f *os.File, data []byte) error {
	if _, err := f.Write(data); err != nil {
		return err
	}
	return f.Close()
}
