// Package symmetry detects the point-symmetry group of a refined
// electron-density map — the capability the paper highlights as a
// benefit of symmetry-agnostic refinement ("if the virus exhibits any
// symmetry this method allows us to determine its symmetry group").
//
// Detection scores each candidate group by the self-correlation of the
// map under every non-identity rotation of the group; a group is
// present exactly when all of its rotations leave the map invariant.
// The reported group is the largest candidate whose worst-element
// correlation clears a threshold, so a C2 particle is not misreported
// as C1, and an icosahedral particle (which also contains C2, C3 and
// C5 as subgroups) is reported as I.
package symmetry

import (
	"math"
	"sort"

	"repro/internal/geom"
	"repro/internal/volume"
)

// Score is the detection evidence for one candidate group.
type Score struct {
	Group *geom.Group
	// MinCC is the lowest self-correlation over the group's
	// non-identity elements — the group is present only if even its
	// worst rotation preserves the map.
	MinCC float64
	// MeanCC is the average self-correlation over non-identity
	// elements.
	MeanCC float64
}

// DefaultCandidates returns the candidate groups scanned by Detect:
// cyclic C2–C7, dihedral D2–D6, and the polyhedral groups T, O, I.
func DefaultCandidates() []*geom.Group {
	var gs []*geom.Group
	for n := 2; n <= 7; n++ {
		gs = append(gs, geom.Cyclic(n))
	}
	for n := 2; n <= 6; n++ {
		gs = append(gs, geom.Dihedral(n))
	}
	gs = append(gs, geom.Tetrahedral(), geom.Octahedral(), geom.Icosahedral())
	return gs
}

// ScoreGroup computes the self-correlation evidence for one group.
// The map is masked to a sphere first so box corners (which rotate out
// of the lattice) do not bias the correlation.
func ScoreGroup(m *volume.Grid, g *geom.Group) Score {
	masked := m.Clone()
	masked.SphericalMask(float64(m.L)/2 - 1)
	min, sum := math.Inf(1), 0.0
	n := 0
	for _, e := range g.Elements[1:] {
		rot := masked.Rotate([3][3]float64(e))
		cc := volume.Correlation(masked, rot)
		if cc < min {
			min = cc
		}
		sum += cc
		n++
	}
	if n == 0 {
		return Score{Group: g, MinCC: 1, MeanCC: 1}
	}
	return Score{Group: g, MinCC: min, MeanCC: sum / float64(n)}
}

// Detect scans the candidate groups and returns the largest group
// whose MinCC clears the threshold, together with every candidate's
// score (sorted by descending group order). If no candidate clears
// the threshold the particle is asymmetric and C1 is returned.
// A threshold around 0.8 tolerates the resampling error of rotating a
// discrete lattice; nil candidates selects DefaultCandidates.
func Detect(m *volume.Grid, candidates []*geom.Group, threshold float64) (*geom.Group, []Score) {
	if candidates == nil {
		candidates = DefaultCandidates()
	}
	scores := make([]Score, 0, len(candidates))
	for _, g := range candidates {
		scores = append(scores, ScoreGroup(m, g))
	}
	sort.SliceStable(scores, func(a, b int) bool {
		return scores[a].Group.Order() > scores[b].Group.Order()
	})
	for _, s := range scores {
		if s.MinCC >= threshold {
			return s.Group, scores
		}
	}
	return geom.Cyclic(1), scores
}
