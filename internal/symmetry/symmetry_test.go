package symmetry

import (
	"testing"

	"repro/internal/geom"
	"repro/internal/phantom"
)

func TestDetectIcosahedral(t *testing.T) {
	m := phantom.SindbisLike(32)
	g, scores := Detect(m, nil, 0.8)
	if g.Name != "I" {
		for _, s := range scores {
			t.Logf("%-4s min=%.3f mean=%.3f", s.Group.Name, s.MinCC, s.MeanCC)
		}
		t.Fatalf("detected %s, want I", g.Name)
	}
}

func TestDetectC1ForAsymmetric(t *testing.T) {
	m := phantom.Asymmetric(32, 10, 3)
	g, _ := Detect(m, nil, 0.8)
	if g.Name != "C1" {
		t.Fatalf("asymmetric particle detected as %s", g.Name)
	}
}

func TestDetectCyclic(t *testing.T) {
	m := phantom.CnSymmetric(32, 5, 7)
	g, scores := Detect(m, nil, 0.8)
	if g.Name != "C5" {
		for _, s := range scores {
			t.Logf("%-4s min=%.3f mean=%.3f", s.Group.Name, s.MinCC, s.MeanCC)
		}
		t.Fatalf("detected %s, want C5", g.Name)
	}
}

func TestDetectPrefersLargerGroup(t *testing.T) {
	// An icosahedral map also satisfies C2, C3, C5 — detection must
	// report the full group, not a subgroup.
	m := phantom.SindbisLike(32)
	_, scores := Detect(m, nil, 0.8)
	var c5, ico float64
	for _, s := range scores {
		switch s.Group.Name {
		case "C5":
			c5 = s.MinCC
		case "I":
			ico = s.MinCC
		}
	}
	// C5 about the Z axis is NOT an icosahedral subgroup in the 222
	// setting (the five-folds are off-axis), so C5-about-Z may fail;
	// the point is that I itself clears the threshold.
	if ico < 0.8 {
		t.Fatalf("icosahedral score %.3f below threshold", ico)
	}
	_ = c5
}

func TestScoreGroupPerfectForTrivial(t *testing.T) {
	m := phantom.Asymmetric(16, 4, 1)
	s := ScoreGroup(m, geom.Cyclic(1))
	if s.MinCC != 1 || s.MeanCC != 1 {
		t.Fatalf("trivial group score %+v", s)
	}
}
