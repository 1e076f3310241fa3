package main

import (
	"fmt"
	"io"
	"sort"
)

// quartiles returns the first and third quartile of xs as Python's
// statistics.quantiles(xs, n=4) gives them (the exclusive method).
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return s[0], s[0]
	}
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		j = max(1, min(j, n-1))
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// spread is the distance between the quartiles as a share of the median.
func spread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	return (q3 - q1) / median(xs)
}

// verdict applies the regression rule to one workload × end-to-end
// metric: a is the base (parent) runs, b the change's.
func verdict(d metricDef, a, b []float64) (string, float64) {
	ma, mb := median(a), median(b)
	worseBy := (mb - ma) / ma
	better := func(x, y float64) bool { return x < y }
	if d.Better == "higher" {
		worseBy = -worseBy
		better = func(x, y float64) bool { return x > y }
	}
	allBetter, allWorse := true, true
	for _, x := range b {
		for _, y := range a {
			allBetter = allBetter && better(x, y)
			allWorse = allWorse && better(y, x)
		}
	}
	switch {
	case allBetter:
		return "ok", worseBy
	case allWorse && worseBy > d.Bound:
		return "worse", worseBy
	case max(spread(a), spread(b)) > d.Bound:
		// Run-to-run spread wider than the bound: the medians cannot
		// show the metric unchanged.
		return "unresolved", worseBy
	case worseBy > d.Bound:
		return "worse", worseBy
	}
	return "ok", worseBy
}

// compareFiles prints, per workload × end-to-end metric, both medians,
// the ratio with its base, the bound and the verdict for the seed's sets
// of two results files, then the quality and exact-count metrics.
// It reports whether anything is worse or any more checks failed.
func compareFiles(out io.Writer, pathA, pathB string, seed int64) (bool, error) {
	w := new(report)
	var sets [2]*resultSet
	for i, p := range []string{pathA, pathB} {
		f, err := loadResults(p)
		if err != nil {
			return false, err
		}
		if sets[i] = f.set(seed); sets[i] == nil {
			return false, fmt.Errorf("%s holds no set for seed %d", p, seed)
		}
	}
	a, b := sets[0], sets[1]
	w.printf("base A = %s (%s), B = %s (%s), seed %d\n", pathA, a.GitCommit, pathB, b.GitCommit, seed)
	if a.RunMeta != b.RunMeta {
		w.printf("warning: run_meta differs: A %+v, B %+v\n", a.RunMeta, b.RunMeta)
	}
	anyWorse := false
	for _, wa := range a.Workloads {
		wb := b.workload(wa.Name)
		if wb == nil {
			w.printf("%s: missing from B\n", wa.Name)
			anyWorse = true
			continue
		}
		for _, d := range endToEnd {
			sa, sb := wa.EndToEnd[d.Name], wb.EndToEnd[d.Name]
			if len(sa.Values) == 0 || len(sb.Values) == 0 {
				w.printf("%-18s %-12s missing\n", wa.Name, d.Name)
				anyWorse = true
				continue
			}
			v, worseBy := verdict(d, sa.Values, sb.Values)
			w.printf("%-18s %-12s A %10.5g  B %10.5g %-8s B/A %.3f of base %.5g  worse by %+6.1f%% (bound %.0f%%, %s is better)  %s\n",
				wa.Name, d.Name, sa.Median, sb.Median, d.Unit, sb.Median/sa.Median, sa.Median, 100*worseBy, 100*d.Bound, d.Better, v)
			anyWorse = anyWorse || v == "worse"
		}
		for _, name := range []string{"quality.fsc05_A", "quality.ang_err_deg"} {
			qa, qb := wa.PerLayer[name], wb.PerLayer[name]
			v := "ok"
			if qb.Value > qa.Value+qualityBound {
				v, anyWorse = "worse", true
			}
			w.printf("%-18s %-20s A %10.6g  B %10.6g %-4s (bound +%g)  %s\n", wa.Name, name, qa.Value, qb.Value, qa.Unit, qualityBound, v)
		}
		for _, name := range exactMetrics {
			v := "same"
			if wa.PerLayer[name].Value != wb.PerLayer[name].Value {
				v = "changed"
			}
			w.printf("%-18s %-20s A %10.6g  B %10.6g %-4s %s\n", wa.Name, name, wa.PerLayer[name].Value, wb.PerLayer[name].Value, wa.PerLayer[name].Unit, v)
		}
		if wb.Failed > wa.Failed {
			w.printf("%-18s failed checks rose from %d to %d\n", wa.Name, wa.Failed, wb.Failed)
			anyWorse = true
		}
	}
	_, err := out.Write(w.Bytes())
	return anyWorse, err
}
