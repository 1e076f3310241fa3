// Package workload drives the paper's experiments end to end: it
// builds the synthetic stand-ins for the Sindbis and reovirus
// datasets, runs the legacy ("old") and the paper's ("new")
// refinements, reconstructs maps, computes FSC curves, assembles the
// timing tables, and evaluates the analytic operation-count claims of
// §3–§4. Every table and figure of the paper maps to one exported
// function here (see DESIGN.md for the index).
package workload

import (
	"fmt"
	"math"

	"repro/internal/micrograph"
	"repro/internal/phantom"
	"repro/internal/volume"
)

// DatasetSpec describes one experimental dataset, both at simulator
// scale (what we actually run) and at paper scale (what the analytic
// cost models extrapolate to).
type DatasetSpec struct {
	// Name identifies the dataset ("sindbis-like", "reo-like", ...).
	Name string
	// L is the simulator box size in pixels/voxels.
	L int
	// NumViews is the simulator view count.
	NumViews int
	// PixelA is the sampling in Å/pixel. The paper datasets were
	// boxed at ≈2.5–3 Å/px; we scale the pixel size so the particle
	// diameter in Å stays ballpark-correct at the smaller box.
	PixelA float64
	// SNR, CenterJitter, ApplyCTF, DefocusGroups and Seed configure
	// the synthetic corruption; see micrograph.GenParams.
	SNR           float64
	CenterJitter  float64
	ApplyCTF      bool
	DefocusGroups int
	Seed          int64
	// InitError is the per-axis error (degrees) of the initial
	// orientations handed to refinement.
	InitError float64
	// Phantom builds the ground-truth density.
	Phantom func(l int) *volume.Grid
	// PaperL and PaperViews are the real dataset's dimensions, used
	// by the paper-scale analytic timing model (221²×7,917 for
	// Sindbis; 511²×4,422 for reo).
	PaperL, PaperViews int
}

// SindbisSpec models the Sindbis dataset: an icosahedral single-shell
// alphavirus with surface spikes; 7,917 views of 221×221 pixels in the
// paper, scaled to a box the simulator refines in seconds.
func SindbisSpec() DatasetSpec {
	return DatasetSpec{
		Name:         "sindbis-like",
		L:            48,
		NumViews:     80,
		PixelA:       2.8,
		SNR:          1.5,
		CenterJitter: 1.0,
		Seed:         42,
		InitError:    2.0,
		Phantom:      phantom.SindbisLike,
		PaperL:       221,
		PaperViews:   7917,
	}
}

// ReoSpec models the reovirus dataset: a larger, double-shelled
// icosahedral particle; 4,422 views of 511×511 pixels in the paper.
func ReoSpec() DatasetSpec {
	return DatasetSpec{
		Name:         "reo-like",
		L:            56,
		NumViews:     70,
		PixelA:       3.0,
		SNR:          1.5,
		CenterJitter: 1.0,
		Seed:         77,
		InitError:    2.0,
		Phantom:      phantom.ReoLike,
		PaperL:       511,
		PaperViews:   4422,
	}
}

// AsymmetricSpec is the dataset class the method was designed to
// unlock: a particle with no symmetry at all.
func AsymmetricSpec() DatasetSpec {
	return DatasetSpec{
		Name:         "asymmetric",
		L:            40,
		NumViews:     60,
		PixelA:       3.0,
		SNR:          2.0,
		CenterJitter: 0.5,
		Seed:         11,
		InitError:    2.0,
		Phantom: func(l int) *volume.Grid {
			g := phantom.Asymmetric(l, 12, 5)
			g.SphericalMask(0.42 * float64(l))
			return g
		},
		PaperL:     221,
		PaperViews: 2000,
	}
}

// SpecByName resolves a dataset name to its spec — the name→spec
// mapping of the refinement job service. Both the short names
// ("sindbis") and the spec's own Name field ("sindbis-like") are
// accepted.
func SpecByName(name string) (DatasetSpec, error) {
	switch name {
	case "sindbis", "sindbis-like":
		return SindbisSpec(), nil
	case "reo", "reo-like":
		return ReoSpec(), nil
	case "asymmetric":
		return AsymmetricSpec(), nil
	}
	return DatasetSpec{}, fmt.Errorf("workload: unknown dataset %q (want sindbis, reo or asymmetric)", name)
}

// Scaled returns a copy of the spec shrunk by the given factor on box
// size and view count (factor ≥ 1 shrinks), for quick tests and
// benchmarks. Box sizes are kept even and ≥ 16; view counts ≥ 8.
func (s DatasetSpec) Scaled(factor float64) DatasetSpec {
	if factor <= 1 {
		return s
	}
	out := s
	l := int(math.Round(float64(s.L) / factor))
	if l < 16 {
		l = 16
	}
	out.L = l &^ 1
	if out.L < 16 {
		out.L = 16
	}
	n := int(math.Round(float64(s.NumViews) / factor))
	if n < 8 {
		n = 8
	}
	out.NumViews = n
	return out
}

// Build synthesizes the dataset: the phantom density plus NumViews
// corrupted projections.
func (s DatasetSpec) Build() *micrograph.Dataset {
	truth := s.Phantom(s.L)
	return micrograph.Generate(truth, micrograph.GenParams{
		NumViews:      s.NumViews,
		PixelA:        s.PixelA,
		SNR:           s.SNR,
		CenterJitter:  s.CenterJitter,
		ApplyCTF:      s.ApplyCTF,
		DefocusGroups: s.DefocusGroups,
		Seed:          s.Seed,
	})
}
