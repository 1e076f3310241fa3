// Command benchcycle is the repository's benchmark: it drives the
// system from outside, through public API only, and reports the wall
// time of a served refinement cycle, the per-layer budget behind it,
// and four companion workloads that stress the other layers.
//
// Three modes share one binary:
//
//	benchcycle -workload <name> -seed <n> -seconds <s> -trace <0|1>
//	    one run of one workload; the last stdout line is the result JSON
//	    BENCHMARK.json's contract asks for (this is what run.sh execs)
//	benchcycle [-seed n] [-repeats r] [-o results.json]
//	    every workload, each run in a fresh child -repeats times untraced
//	    and once traced; prints every metric and records the set
//	benchcycle [-seed n] -compare A.json B.json
//	    the regression rule: per workload × end-to-end metric, ok / worse
//	    / unresolved against the metric's bound
//
// See README.md beside this file for the metric glossary.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// buildDir is where a run keeps everything it writes — journals, map
// artifacts, traces — relative to the working directory, so a run
// touches nothing outside its checkout. run.sh builds the binary there
// too.
const buildDir = ".bench_build"

func main() {
	var (
		workload = flag.String("workload", "", "run one workload (default: the whole suite)")
		seed     = flag.Int64("seed", 1, "workload seed, the only source of variation")
		seconds  = flag.Float64("seconds", 20, "how long one run measures: converted to a fixed count of jobs or passes per workload")
		trace    = flag.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
		traceOut = flag.String("trace-out", "", "Chrome trace-event file of a traced run (default "+buildDir+"/trace-<workload>.json)")
		smoke    = flag.Bool("smoke", false, "tiny sizes (what the package test runs)")
		repeats  = flag.Int("repeats", 3, "suite: untraced runs per workload")
		out      = flag.String("o", "cmd/benchcycle/results.json", "suite: results file; the set for -seed is replaced, other seeds are kept")
		compare  = flag.Bool("compare", false, "compare the -seed sets of two results files: benchcycle [-seed n] -compare A.json B.json")
	)
	flag.Parse()

	switch {
	case *compare:
		files := flag.Args()
		if len(files) != 2 {
			fatal(fmt.Errorf("usage: benchcycle [-seed n] -compare A.json B.json"))
		}
		worse, err := compareFiles(os.Stdout, files[0], files[1], *seed)
		if err != nil {
			fatal(err)
		}
		if worse {
			os.Exit(1)
		}
	case *workload == "":
		if err := runSuite(*seed, *repeats, *seconds, *smoke, *out); err != nil {
			fatal(err)
		}
	default:
		e := &env{workload: *workload, seed: *seed, seconds: *seconds, traced: *trace != 0, smoke: *smoke, base: buildDir, traceOut: *traceOut}
		res, err := e.run()
		if err != nil {
			fatal(err)
		}
		if err := res.print(os.Stdout, e.traced); err != nil {
			fatal(err)
		}
		if res.failed > 0 {
			os.Exit(1)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchcycle:", err)
	os.Exit(2)
}

// env is one run of one workload.
type env struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	smoke    bool
	base     string // scratch directory, created if missing
	traceOut string

	nproc int // GOMAXPROCS the process started with
	res   *result
	tr    *tracer
}

// result collects one run's metrics, check tallies and provenance.
type result struct {
	values    map[string]float64
	attempted int
	failed    int
	meta      map[string]any
}

func (r *result) set(name string, v float64) { r.values[name] = v }

// check tallies one correctness check; a failure is logged at once and
// makes the command exit non-zero.
func (r *result) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.failed++
		fmt.Fprintf(os.Stderr, "benchcycle: CHECK FAILED: "+format+"\n", args...)
	}
}

// setCoverage reports trace.budget_coverage and checks that the span
// budget sums: named spans must account for the traced wall to within
// 5 %.
func (r *result) setCoverage(c float64) {
	r.set("trace.budget_coverage", c)
	r.check(c >= 0.95 && c <= 1.05, "spans cover %.3f of the traced wall, want 0.95–1.05", c)
}

// run executes the workload and fills in the process-wide metrics.
func (e *env) run() (*result, error) {
	w, ok := workloadByName(e.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", e.workload, strings.Join(workloadNames(), ", "))
	}
	if e.seconds <= 0 {
		return nil, fmt.Errorf("non-positive -seconds %g", e.seconds)
	}
	e.nproc = runtime.GOMAXPROCS(0)
	procs := e.nproc
	if w.singleProc {
		procs = 1
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	if err := os.MkdirAll(e.base, 0o755); err != nil {
		return nil, err
	}
	e.res = &result{values: map[string]float64{}, meta: map[string]any{}}
	if e.traced {
		e.tr = newTracer(e.workload)
	}
	if err := w.run(e, w.units(e.seconds)); err != nil {
		return nil, fmt.Errorf("%s: %w", e.workload, err)
	}
	if e.traced {
		path := e.traceOut
		if path == "" {
			path = fmt.Sprintf("%s/trace-%s.json", e.base, e.workload)
		}
		if err := e.tr.writeChrome(path); err != nil {
			return nil, fmt.Errorf("writing trace: %w", err)
		}
		e.res.meta["trace_file"] = path
	} else {
		rss, err := peakRSSMB()
		if err != nil {
			return nil, err
		}
		e.res.set("peak_rss_mb", rss)
	}
	e.res.meta["workload"] = e.workload
	e.res.meta["seed"] = e.seed
	e.res.meta["seconds"] = e.seconds
	e.res.meta["smoke"] = e.smoke
	e.res.meta["nproc"] = e.nproc
	e.res.meta["gomaxprocs"] = procs
	return e.res, nil
}

// metricValue is one metric of the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of a run's standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// metaPrefix marks the provenance line the suite reads back from a
// child; the result line's keys are fixed, so provenance rides beside
// it.
const metaPrefix = "meta "

// line assembles the result line: every declared metric of the run's
// kind. An end-to-end metric the workload did not set is a bug in the
// benchmark, not a zero; a per-layer metric it did not set reads 0.
func (r *result) line(traced bool) (resultLine, error) {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	line := resultLine{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v, ok := r.values[d.Name]
		if !ok && !traced {
			return line, fmt.Errorf("end-to-end metric %s not measured", d.Name)
		}
		line.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	for name := range r.values {
		if !declared(name) {
			return line, fmt.Errorf("metric %s measured but not declared", name)
		}
	}
	return line, nil
}

// print writes every metric by name and unit, the provenance line, and
// the result line last.
func (r *result) print(out io.Writer, traced bool) error {
	w := new(report)
	line, err := r.line(traced)
	if err != nil {
		return err
	}
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	for _, d := range defs {
		w.printf("%-32s %s %s\n", d.Name, strconv.FormatFloat(line.Metrics[d.Name].Value, 'g', 6, 64), d.Unit)
	}
	w.printf("checks: %d attempted, %d failed\n", r.attempted, r.failed)
	meta, err := json.Marshal(r.meta)
	if err != nil {
		return err
	}
	w.printf("%s%s\n", metaPrefix, meta)
	data, err := json.Marshal(line)
	if err != nil {
		return err
	}
	w.printf("%s\n", data)
	_, err = out.Write(w.Bytes())
	return err
}

// report accumulates printed lines in memory; its owner writes them out
// once, where the write error is checked.
type report struct{ bytes.Buffer }

func (r *report) printf(format string, args ...any) {
	r.WriteString(fmt.Sprintf(format, args...))
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("reading peak RSS: %w", err)
	}
	for _, ln := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(ln, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}

// fastest returns the fast end of xs: the order statistic a tenth of
// the way up, which is the smallest sample when there are fewer than
// ten; 0 for no samples. On a shared host other tenants only ever add
// time to a sample, so the fast end of repeated work is both the closest
// to what the program itself costs and, measured here, steadier from run
// to run than the median. Where a run has hundreds of samples of
// *different* inputs (jobs_small), the very smallest belongs to the
// luckiest input and wanders with the seed; a tenth of the way up does
// not (see README.md).
func fastest(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[len(s)/10]
}

// median returns the middle of xs (mean of the middle two when even);
// 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// quantile returns the p-quantile of xs by linear interpolation
// between order statistics.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}
