package workload

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/core"
)

// Report renders experiment results as the plain-text tables the
// command-line tools print; every method writes the same rows the
// paper's tables and figures report.

// printer wraps a report's writer, remembering the first write error
// so the renderers can print unconditionally and return one error —
// a truncated table on a full disk must not pass silently (see the
// errsink analyzer in internal/analysis).
type printer struct {
	w   io.Writer
	err error
}

func (p *printer) printf(format string, args ...interface{}) {
	if p.err == nil {
		_, p.err = fmt.Fprintf(p.w, format, args...)
	}
}

func (p *printer) println(args ...interface{}) {
	if p.err == nil {
		_, p.err = fmt.Fprintln(p.w, args...)
	}
}

// WriteViewCounts renders the Fig. 1b table.
func WriteViewCounts(w io.Writer, rows []ViewCountRow) error {
	pr := &printer{w: w}
	pr.println("Fig. 1b — calculated views vs angular resolution")
	pr.printf("%10s %14s %16s %8s %18s %s\n",
		"step(deg)", "full sphere", "icos asym unit", "ratio", "asym |P| (3 axes)", "counted")
	for _, r := range rows {
		mode := "enumerated"
		if !r.Measured {
			mode = "area est."
		}
		ratio := 0.0
		if r.IcosAsymUnit > 0 {
			ratio = float64(r.FullSphere) / float64(r.IcosAsymUnit)
		}
		pr.printf("%10.3g %14d %16d %8.1f %18.3e %s\n",
			r.StepDeg, r.FullSphere, r.IcosAsymUnit, ratio, r.AsymSearchSpace, mode)
	}
	return pr.err
}

// WriteOpCount renders the §4 operation-count comparison.
func WriteOpCount(w io.Writer, rep OpCountReport) error {
	pr := &printer{w: w}
	pr.printf("§4 — multi-resolution vs flat search over a %.3g° domain to %.4g°\n",
		rep.DomainDeg, rep.FinalResDeg)
	pr.printf("  flat search:  %d matchings/axis, %.3e for (θ,φ,ω)\n",
		rep.FlatPerAxis, rep.FlatTotal)
	levels := make([]string, len(rep.PerAxisLevels))
	for i, n := range rep.PerAxisLevels {
		levels[i] = fmt.Sprintf("%d", n)
	}
	pr.printf("  multi-res:    %d matchings/axis (%s per level), %.3e for (θ,φ,ω)\n",
		rep.MultiPerAxis, strings.Join(levels, "+"), rep.MultiTotal)
	pr.printf("  saving:       %.1fx per axis, %.3ex overall\n",
		float64(rep.FlatPerAxis)/float64(rep.MultiPerAxis), rep.SavingFactor)
	return pr.err
}

// WriteFSC renders the Figs. 5/6 comparison: both curves plus the 0.5
// crossings and ground-truth scores.
func WriteFSC(w io.Writer, exp *FSCExperiment) error {
	pr := &printer{w: w}
	pr.printf("Figs. 5/6 — correlation-coefficient curves, %s (l=%d, m=%d, SNR=%.2g)\n",
		exp.Spec.Name, exp.Spec.L, exp.Spec.NumViews, exp.Spec.SNR)
	pr.printf("%8s %12s %10s %10s\n", "shell", "res (Å)", "cc old", "cc new")
	n := len(exp.New.Curve.Points)
	for i := 0; i < n; i++ {
		po := exp.Old.Curve.Points[i]
		pn := exp.New.Curve.Points[i]
		pr.printf("%8d %12.2f %10.4f %10.4f\n", pn.Shell, pn.ResolutionA, po.CC, pn.CC)
	}
	pr.printf("resolution at cc=0.5:  old %.2f Å   new %.2f Å\n",
		exp.Old.ResolutionA, exp.New.ResolutionA)
	pr.printf("map cc vs ground truth: old %.4f   new %.4f\n",
		exp.Old.TruthCC, exp.New.TruthCC)
	pr.printf("mean angular error:     old %.3f°   new %.3f°\n",
		exp.Old.MeanAngErr, exp.New.MeanAngErr)
	pr.printf("mean centre error:      old %.3f px  new %.3f px\n",
		exp.Old.MeanCenErr, exp.New.MeanCenErr)
	return pr.err
}

// WriteSliding renders the §5 sliding-window activation statistics:
// one row per level of the default schedule's prefix that sums covers.
func WriteSliding(w io.Writer, name string, sums []core.LevelSummary) error {
	pr := &printer{w: w}
	pr.printf("§5 — sliding-window statistics, %s (final cycle)\n", name)
	pr.printf("%12s %16s %14s %14s %14s %16s\n",
		"r_angular", "matchings/view", "views w/slide", "views at cap", "total slides", "centre evals")
	for li, s := range sums {
		n := float64(s.Views)
		pr.printf("%12.4g %16.1f %14d %14d %14d %16.1f\n",
			core.DefaultSchedule()[li].RAngular, float64(s.Matchings)/n, s.SlideViews, s.SlideCapped, s.Slides, float64(s.CenterEvals)/n)
	}
	return pr.err
}

// WriteTiming renders a Tables 1/2 reproduction.
func WriteTiming(w io.Writer, t *TimingTable) error {
	pr := &printer{w: w}
	pr.printf("Tables 1/2 — per-step times, %s, P=%d (simulated SP2 seconds)\n",
		t.Spec.Name, t.P)
	write := func(label string, rows []TimingRow) {
		pr.printf("  %s\n", label)
		pr.printf("%26s", "Angular resolution (deg)")
		for _, r := range rows {
			pr.printf(" %12.4g", r.RAngular)
		}
		pr.println()
		pr.printf("%26s", "Search range (pts/axis)")
		for _, r := range rows {
			pr.printf(" %12d", r.SearchRange)
		}
		pr.println()
		pr.printf("%26s", "Matchings per view")
		for _, r := range rows {
			pr.printf(" %12.0f", r.MeanMatchings)
		}
		pr.println()
		for _, item := range []struct {
			name string
			get  func(TimingRow) float64
		}{
			{"3D DFT (s)", func(r TimingRow) float64 { return r.DFT3D }},
			{"Read image (s)", func(r TimingRow) float64 { return r.ReadImages }},
			{"FFT analysis (s)", func(r TimingRow) float64 { return r.FFTAnalysis }},
			{"Orientation refinement (s)", func(r TimingRow) float64 { return r.Refinement }},
			{"Total time (s)", func(r TimingRow) float64 { return r.Total }},
		} {
			pr.printf("%26s", item.name)
			for _, r := range rows {
				pr.printf(" %12.4g", item.get(r))
			}
			pr.println()
		}
		pr.printf("%26s", "Refinement share")
		for _, r := range rows {
			pr.printf(" %11.1f%%", 100*r.RefinementShare)
		}
		pr.println()
	}
	write("measured (simulator scale)", t.Rows)
	write(fmt.Sprintf("paper scale (%d views of %d², analytic)", t.Spec.PaperViews, t.Spec.PaperL), t.PaperRows)
	cb := t.Cycle()
	pr.printf("  reconstruction: %.4g s per cycle = %.1f%% of refine+reconstruct (§5 says <5%%)\n",
		cb.ReconstructionSecs, 100*cb.ReconstructionShare)
	return pr.err
}

// WriteSymDetect renders the symmetry-detection experiment.
func WriteSymDetect(w io.Writer, cases []SymDetectCase) error {
	pr := &printer{w: w}
	pr.println("§6 — symmetry-group detection from density maps")
	for _, c := range cases {
		status := "OK"
		if !c.Correct() {
			status = "MISMATCH"
		}
		pr.printf("  %-22s expected %-3s detected %-3s [%s]\n",
			c.Name, c.Expected, c.Detected, status)
		for _, s := range c.Scores {
			if s.MinCC >= 0.5 {
				pr.printf("      %-4s minCC=%.3f meanCC=%.3f\n", s.Group.Name, s.MinCC, s.MeanCC)
			}
		}
	}
	return pr.err
}
