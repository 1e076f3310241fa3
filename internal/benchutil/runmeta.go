// Package benchutil holds the run-context record cmd/benchcycle stamps
// on its result files.
package benchutil

import "runtime"

// RunMeta pins the machine context a bench report was produced under,
// so the bench trajectory across PRs compares like with like.
type RunMeta struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
}

// CurrentRunMeta captures the running process's context.
func CurrentRunMeta() RunMeta {
	return RunMeta{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
	}
}
