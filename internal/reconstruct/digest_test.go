package reconstruct

import (
	"math"
	"testing"

	"repro/internal/micrograph"
	"repro/internal/volume"
)

// TestMapDigestStable pins the property the cycle journal depends on:
// the digest of a parallel reconstruction is identical across worker
// counts and across the Insert/InsertViews entry points — i.e.
// "parallel and serial execution of the parallel kernel" digest
// identically. (The serial //repro:oracle computes the centre ramp and
// the CTF differently and agrees only to ≤1e-12; see the MapDigest doc
// comment and TestShardedMatchesSerialOracle.)
func TestMapDigestStable(t *testing.T) {
	l := 16
	ds, centers, ctfs := ctfDataset(t, l, 18, 41)
	opt := Options{WienerCTF: true}
	build := func(workers int) string {
		m, err := FromViewsParallel(ds.Images(), ds.TrueOrientations(), centers, ctfs,
			ParallelOptions{Options: opt, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		return MapDigest(m)
	}
	ref := build(1)
	for _, w := range []int{2, 4, 8} {
		if d := build(w); d != ref {
			t.Fatalf("digest differs between 1 and %d workers: %s vs %s", w, ref, d)
		}
	}

	// One view at a time: same digest.
	s := NewSharded(l, ParallelOptions{Options: opt, Workers: 3})
	for i, v := range ds.Views {
		if err := s.Insert(v.Image, v.TrueOrient, centers[i], ctfs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if d := MapDigest(s.Finish()); d != ref {
		t.Fatalf("one-at-a-time digest %s differs from batch %s", d, ref)
	}
}

// TestMapDigestSensitivity: any single-bit perturbation of any voxel,
// or a different edge length, must change the digest.
func TestMapDigestSensitivity(t *testing.T) {
	g := volume.NewGrid(8)
	for i := range g.Data {
		g.Data[i] = float64(i) * 0.25
	}
	ref := MapDigest(g)

	mut := g.Clone()
	mut.Data[100] = math.Nextafter(mut.Data[100], math.Inf(1)) // one ulp
	if MapDigest(mut) == ref {
		t.Fatal("digest insensitive to voxel perturbation")
	}

	// ±0 differ in bit pattern and must digest differently — the digest
	// is over bits, not values.
	a, b := volume.NewGrid(4), volume.NewGrid(4)
	b.Data[0] = math.Copysign(0, -1) // the untyped constant -0.0 is +0
	if MapDigest(a) == MapDigest(b) {
		t.Fatal("digest conflates +0 and -0")
	}

	if MapDigest(volume.NewGrid(8)) == MapDigest(volume.NewGrid(9)) {
		t.Fatal("digest insensitive to edge length")
	}
}

// TestMapDigestRoundTrip: a grid serialized with WriteTo and reloaded
// with ReadGrid digests identically — the resume path's artifact check.
func TestMapDigestRoundTrip(t *testing.T) {
	l := 12
	ds := dataset(t, l, 8, micrograph.GenParams{Seed: 42})
	m, err := FromViews(ds.Images(), ds.TrueOrientations(), nil, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/map.bin"
	if err := volume.WriteGridFile(path, m); err != nil {
		t.Fatal(err)
	}
	back, err := volume.ReadGridFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if MapDigest(back) != MapDigest(m) {
		t.Fatal("digest changed across serialize/reload")
	}
}
