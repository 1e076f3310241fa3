package geom

import (
	"fmt"
	"math"
	"sort"
)

// Group is a finite point-symmetry group of rotations, the kind
// exhibited by virus capsids. Elements[0] is always the identity.
type Group struct {
	// Name is a Schoenflies-style label such as "C1", "C5", "D3",
	// "T", "O" or "I".
	Name string
	// Elements are the rotation matrices of the group.
	Elements []Mat3
}

// Order returns the number of elements in the group.
func (g *Group) Order() int { return len(g.Elements) }

// golden ratio, used to position icosahedral axes.
var phi = (1 + math.Sqrt(5)) / 2

// Cyclic returns the cyclic group C_n of rotations about the Z axis.
// Cyclic(1) is the trivial group of an asymmetric particle.
func Cyclic(n int) *Group {
	if n < 1 {
		panic(fmt.Sprintf("geom: invalid cyclic order %d", n))
	}
	g := &Group{Name: fmt.Sprintf("C%d", n)}
	for k := 0; k < n; k++ {
		g.Elements = append(g.Elements, RotZ(2*math.Pi*float64(k)/float64(n)))
	}
	return g
}

// Dihedral returns the dihedral group D_n: C_n about Z plus n two-fold
// axes perpendicular to Z.
func Dihedral(n int) *Group {
	if n < 1 {
		panic(fmt.Sprintf("geom: invalid dihedral order %d", n))
	}
	g := closure(fmt.Sprintf("D%d", n),
		RotZ(2*math.Pi/float64(n)),
		RotX(math.Pi),
	)
	if g.Order() != 2*n {
		panic(fmt.Sprintf("geom: dihedral closure produced %d elements, want %d", g.Order(), 2*n))
	}
	return g
}

// Tetrahedral returns the rotation group T of the tetrahedron
// (12 elements).
func Tetrahedral() *Group {
	g := closure("T",
		RotZ(math.Pi),
		AxisAngle(Vec3{1, 1, 1}, 2*math.Pi/3),
	)
	if g.Order() != 12 {
		panic(fmt.Sprintf("geom: tetrahedral closure produced %d elements", g.Order()))
	}
	return g
}

// Octahedral returns the rotation group O of the octahedron/cube
// (24 elements).
func Octahedral() *Group {
	g := closure("O",
		RotZ(math.Pi/2),
		AxisAngle(Vec3{1, 1, 1}, 2*math.Pi/3),
	)
	if g.Order() != 24 {
		panic(fmt.Sprintf("geom: octahedral closure produced %d elements", g.Order()))
	}
	return g
}

// Icosahedral returns the rotation group I of the icosahedron, the
// 60-element symmetry group of icosahedral virus capsids such as
// Sindbis and reovirus. The orientation follows the common 2-2-2
// crystallographic setting: two-fold axes along X, Y and Z, with a
// five-fold axis in the YZ plane at atan(1/φ) from +Z.
func Icosahedral() *Group {
	five := AxisAngle(Vec3{0, 1, phi}, 2*math.Pi/5)
	two := RotZ(math.Pi)
	g := closure("I", five, two, RotX(math.Pi))
	if g.Order() != 60 {
		panic(fmt.Sprintf("geom: icosahedral closure produced %d elements", g.Order()))
	}
	return g
}

// matKey quantizes a matrix for deduplication during closure.
func matKey(m Mat3) [9]int32 {
	var k [9]int32
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			k[3*i+j] = int32(math.Round(m[i][j] * 1e6))
		}
	}
	return k
}

// closure generates the group spanned by the given rotations by
// repeated multiplication until no new elements appear. The identity
// is always placed first; the remaining elements are ordered by
// quantized matrix entries so the result is deterministic.
func closure(name string, gens ...Mat3) *Group {
	seen := map[[9]int32]Mat3{}
	id := Identity3()
	seen[matKey(id)] = id
	// Collect keys at insert time — frontier order is deterministic,
	// while ranging over the map afterwards would not be.
	keys := [][9]int32{matKey(id)}
	frontier := []Mat3{id}
	for len(frontier) > 0 {
		var next []Mat3
		for _, f := range frontier {
			for _, g := range gens {
				p := g.Mul(f)
				k := matKey(p)
				if _, ok := seen[k]; !ok {
					seen[k] = p
					keys = append(keys, k)
					next = append(next, p)
				}
			}
		}
		frontier = next
		if len(seen) > 1000 {
			panic("geom: group closure did not converge (generators not a finite group?)")
		}
	}
	sort.Slice(keys, func(a, b int) bool {
		ka, kb := keys[a], keys[b]
		for i := range ka {
			if ka[i] != kb[i] {
				return ka[i] < kb[i]
			}
		}
		return false
	})
	g := &Group{Name: name, Elements: make([]Mat3, 0, len(seen))}
	g.Elements = append(g.Elements, id)
	idKey := matKey(id)
	for _, k := range keys {
		if k == idKey {
			continue
		}
		g.Elements = append(g.Elements, seen[k])
	}
	return g
}

// Canonical maps a direction to the lexicographically largest member
// of its orbit under the group, giving a well-defined representative
// of each asymmetric-unit cell on the sphere.
func (g *Group) Canonical(d Vec3) Vec3 {
	best := d
	for _, e := range g.Elements {
		c := e.Apply(d)
		if vecLess(best, c) {
			best = c
		}
	}
	return best
}

// InAsymmetricUnit reports whether direction d is the canonical
// representative of its orbit, i.e. lies in the group's asymmetric
// unit (one cell of area 4π/|G| on the unit sphere, up to measure-zero
// boundaries).
func (g *Group) InAsymmetricUnit(d Vec3) bool {
	for _, e := range g.Elements[1:] {
		c := e.Apply(d)
		if vecLess(d, c) {
			return false
		}
	}
	return true
}

// vecLess orders vectors lexicographically with a small tolerance so
// orbit boundaries resolve consistently.
func vecLess(a, b Vec3) bool {
	const eps = 1e-9
	if math.Abs(a.Z-b.Z) > eps {
		return a.Z < b.Z
	}
	if math.Abs(a.Y-b.Y) > eps {
		return a.Y < b.Y
	}
	if a.X < b.X-eps {
		return true
	}
	return false
}
