package reconstruct

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"runtime"
	"testing"

	"repro/internal/ctf"
	"repro/internal/geom"
	"repro/internal/micrograph"
	"repro/internal/volume"
)

// ctfDataset builds a dataset with centre jitter and CTF groups plus
// the matching correction/params slices — the full fused-path surface.
func ctfDataset(t testing.TB, l, n int, seed int64) (*micrograph.Dataset, [][2]float64, []ctf.Params) {
	t.Helper()
	ds := dataset(t, l, n, micrograph.GenParams{Seed: seed, CenterJitter: 2, ApplyCTF: true, DefocusGroups: 3})
	centers := make([][2]float64, len(ds.Views))
	ctfs := make([]ctf.Params, len(ds.Views))
	for i, v := range ds.Views {
		centers[i] = [2]float64{-v.TrueCenter[0], -v.TrueCenter[1]}
		ctfs[i] = v.CTF
	}
	return ds, centers, ctfs
}

// maxRelDiff returns max|a−b| scaled by max|a|.
func maxRelDiff(a, b *volume.Grid) float64 {
	var scale, diff float64
	for i := range a.Data {
		if m := math.Abs(a.Data[i]); m > scale {
			scale = m
		}
		if d := math.Abs(a.Data[i] - b.Data[i]); d > diff {
			diff = d
		}
	}
	if scale == 0 {
		return diff
	}
	return diff / scale
}

func gridsIdentical(a, b *volume.Grid) bool {
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			return false
		}
	}
	return true
}

// TestShardedMatchesSerialOracle pins the tentpole equivalence: the
// fused sharded kernel agrees with the serial oracle to ≤1e-12 on the
// full path (phase ramps, Wiener CTF weighting, trilinear scatter).
func TestShardedMatchesSerialOracle(t *testing.T) {
	l := 24
	ds, centers, ctfs := ctfDataset(t, l, 50, 21)
	opt := Options{WienerCTF: true}

	oracle := New(l, opt)
	for i, v := range ds.Views {
		if err := oracle.Insert(v.Image, v.TrueOrient, centers[i], ctfs[i]); err != nil {
			t.Fatal(err)
		}
	}
	serial := oracle.Finish()

	par, err := FromViewsParallel(ds.Images(), ds.TrueOrientations(), centers, ctfs,
		ParallelOptions{Options: opt, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if d := maxRelDiff(serial, par); d > 1e-12 {
		t.Fatalf("sharded kernel diverges from serial oracle: max rel diff %g", d)
	}
}

// TestShardedMatchesOracleNoCTF covers the plain (unweighted,
// uncentred) path separately, where the oracle skips both the phase
// ramp and the CTF branch. With neither, the kernel sums every voxel in
// the oracle's order from the oracle's values, so the maps are
// bit-identical.
func TestShardedMatchesOracleNoCTF(t *testing.T) {
	l := 24
	ds := dataset(t, l, 40, micrograph.GenParams{Seed: 22})
	oracle := New(l, Options{})
	for _, v := range ds.Views {
		if err := oracle.Insert(v.Image, v.TrueOrient, [2]float64{}, ctf.Params{}); err != nil {
			t.Fatal(err)
		}
	}
	par, err := FromViews(ds.Images(), ds.TrueOrientations(), nil, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if serial := oracle.Finish(); !gridsIdentical(serial, par) {
		t.Fatalf("not bit-identical to the oracle: max rel diff %g", maxRelDiff(serial, par))
	}
}

// TestShardedBitIdenticalAcrossWorkers is the determinism contract:
// the worker count must never move a single bit of the output.
func TestShardedBitIdenticalAcrossWorkers(t *testing.T) {
	l := 24
	ds, centers, ctfs := ctfDataset(t, l, 30, 23)
	build := func(workers int) *volume.Grid {
		m, err := FromViewsParallel(ds.Images(), ds.TrueOrientations(), centers, ctfs,
			ParallelOptions{Options: Options{WienerCTF: true}, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	ref := build(1)
	for _, w := range []int{4, 8} {
		if m := build(w); !gridsIdentical(ref, m) {
			t.Fatalf("output differs between 1 and %d workers", w)
		}
	}
}

// TestShardedInsertAllocFree: once the shard scratch is warm, inserting
// a view through the fused kernel (phase ramp, Wiener CTF weighting,
// scatter) allocates nothing.
func TestShardedInsertAllocFree(t *testing.T) {
	l := 32
	ds, centers, ctfs := ctfDataset(t, l, 16, 31)
	rec := NewSharded(l, ParallelOptions{Options: Options{WienerCTF: true}, Workers: 1})
	i := 0
	insert := func() {
		j := i % len(ds.Views)
		if err := rec.Insert(ds.Views[j].Image, ds.Views[j].TrueOrient, centers[j], ctfs[j]); err != nil {
			t.Fatal(err)
		}
		i++
	}
	for range ds.Views {
		insert()
	}
	if allocs := testing.AllocsPerRun(64, insert); allocs != 0 {
		t.Errorf("%g allocations per warm insert, want 0", allocs)
	}
}

// TestInsertViewsValidation: a batch with a wrong-size view or a
// non-finite centre is refused whole — no view of it is counted or
// accumulated — and the reconstructor stays usable.
func TestInsertViewsValidation(t *testing.T) {
	s := NewSharded(16, ParallelOptions{})
	good := ViewTask{Image: volume.NewImage(16)}
	for _, bad := range []ViewTask{
		{Image: volume.NewImage(8)},
		{Image: volume.NewImage(16), Center: [2]float64{math.NaN(), 0}},
	} {
		if err := s.InsertViews([]ViewTask{good, bad}); err == nil {
			t.Fatalf("InsertViews accepted %+v", bad)
		}
	}
	if s.Views() != 0 {
		t.Fatalf("refused batches counted %d views", s.Views())
	}
	if err := s.InsertViews([]ViewTask{good}); err != nil {
		t.Fatalf("valid insert after errors failed: %v", err)
	}
	if s.Views() != 1 {
		t.Fatalf("view count %d, want 1", s.Views())
	}
}

// TestSplitHalvesSinglePassUnchanged: the one-pass streaming split
// must reproduce, bit for bit, what reconstructing the two materialized
// subsets yields.
func TestSplitHalvesSinglePassUnchanged(t *testing.T) {
	l := 16
	ds, centers, ctfs := ctfDataset(t, l, 21, 25)
	opt := Options{WienerCTF: true}
	odd, even, err := SplitHalves(ds.Images(), ds.TrueOrientations(), centers, ctfs, opt)
	if err != nil {
		t.Fatal(err)
	}

	var oddV, evenV []*volume.Image
	var oddO, evenO []geom.Euler
	var oddC, evenC [][2]float64
	var oddP, evenP []ctf.Params
	for i, im := range ds.Images() {
		if i%2 == 0 {
			oddV = append(oddV, im)
			oddO = append(oddO, ds.Views[i].TrueOrient)
			oddC = append(oddC, centers[i])
			oddP = append(oddP, ctfs[i])
		} else {
			evenV = append(evenV, im)
			evenO = append(evenO, ds.Views[i].TrueOrient)
			evenC = append(evenC, centers[i])
			evenP = append(evenP, ctfs[i])
		}
	}
	oddRef, err := FromViews(oddV, oddO, oddC, oddP, opt)
	if err != nil {
		t.Fatal(err)
	}
	evenRef, err := FromViews(evenV, evenO, evenC, evenP, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !gridsIdentical(odd, oddRef) {
		t.Fatal("odd half differs from subset reconstruction")
	}
	if !gridsIdentical(even, evenRef) {
		t.Fatal("even half differs from subset reconstruction")
	}
}

// TestShardedFinishThenContinue: Finish is a checkpoint, not a
// terminator — continuing accumulation afterwards must match a fresh
// reconstructor fed the whole sequence.
func TestShardedFinishThenContinue(t *testing.T) {
	l := 16
	ds, centers, ctfs := ctfDataset(t, l, 12, 26)
	opt := ParallelOptions{Options: Options{WienerCTF: true}}
	tasks := make([]ViewTask, len(ds.Views))
	for i, v := range ds.Views {
		tasks[i] = ViewTask{Image: v.Image, Orient: v.TrueOrient, Center: centers[i], CTF: ctfs[i]}
	}

	split := NewSharded(l, opt)
	if err := split.InsertViews(tasks[:5]); err != nil {
		t.Fatal(err)
	}
	mid := split.Finish()
	midAgain := split.Finish()
	if !gridsIdentical(mid, midAgain) {
		t.Fatal("repeated Finish not identical")
	}
	if err := split.InsertViews(tasks[5:]); err != nil {
		t.Fatal(err)
	}

	whole := NewSharded(l, opt)
	if err := whole.InsertViews(tasks); err != nil {
		t.Fatal(err)
	}
	if !gridsIdentical(split.Finish(), whole.Finish()) {
		t.Fatal("Finish-then-continue diverged from single-shot accumulation")
	}
	if gridsIdentical(mid, split.Finish()) {
		t.Fatal("continued accumulation did not change the map")
	}
}

// TestRMaxExactlyNyquist: the band boundary case. Corner coefficients
// at |f| = l/2 alias through the wrap table; the kernel must neither
// panic nor produce non-finite output, and must still agree with the
// oracle.
func TestRMaxExactlyNyquist(t *testing.T) {
	l := 16
	ds, centers, ctfs := ctfDataset(t, l, 10, 27)
	opt := Options{RMax: float64(l) / 2, WienerCTF: true}
	oracle := New(l, opt)
	for i, v := range ds.Views {
		if err := oracle.Insert(v.Image, v.TrueOrient, centers[i], ctfs[i]); err != nil {
			t.Fatal(err)
		}
	}
	par, err := FromViews(ds.Images(), ds.TrueOrientations(), centers, ctfs, opt)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range par.Data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("non-finite voxel %d: %v", i, v)
		}
	}
	if d := maxRelDiff(oracle.Finish(), par); d > 1e-12 {
		t.Fatalf("Nyquist-band reconstruction: max rel diff %g", d)
	}
}

// TestSpreadOutsideLatticeIsNoOp: a rotated frequency point that
// leaves the lattice (possible only through direct use, since
// orthonormal rotations keep |pt| ≤ RMax) must be dropped whole, not
// partially wrapped.
func TestSpreadOutsideLatticeIsNoOp(t *testing.T) {
	r := New(8, Options{})
	for _, pt := range []geom.Vec3{
		{X: 5, Y: 0, Z: 0}, {X: -4.5, Y: 0, Z: 0},
		{X: 0, Y: 100, Z: 0}, {X: 0, Y: 0, Z: -7},
	} {
		r.spread(pt, complex(1, 1), 1)
	}
	for i := range r.den {
		if r.den[i] != 0 || r.num[i] != 0 {
			t.Fatalf("out-of-lattice spread touched voxel %d", i)
		}
	}
}

// TestNonFiniteCenterRejected: both paths refuse NaN/Inf centre
// corrections instead of silently corrupting the volume.
func TestNonFiniteCenterRejected(t *testing.T) {
	l := 8
	im := volume.NewImage(l)
	bad := [][2]float64{
		{math.NaN(), 0}, {0, math.NaN()}, {math.Inf(1), 0}, {0, math.Inf(-1)},
	}
	serial := New(l, Options{})
	sharded := NewSharded(l, ParallelOptions{})
	for _, c := range bad {
		if err := serial.Insert(im, geom.Euler{}, c, ctf.Params{}); err == nil {
			t.Fatalf("serial Insert accepted centre %v", c)
		}
		if err := sharded.Insert(im, geom.Euler{}, c, ctf.Params{}); err == nil {
			t.Fatalf("sharded Insert accepted centre %v", c)
		}
	}
	if serial.Views() != 0 || sharded.Views() != 0 {
		t.Fatal("rejected inserts still counted")
	}
	if _, err := FromViews([]*volume.Image{im, im}, make([]geom.Euler, 2),
		[][2]float64{{math.NaN(), 0}, {0, 0}}, nil, Options{}); err == nil {
		t.Fatal("FromViews accepted non-finite centre")
	}
}

// TestWienerZeroCrossingCTF: parameters whose CTF crosses zero inside
// the band drive the accumulated denominator towards the ε floor; the
// inversion must stay finite and still beat ignoring the CTF.
func TestWienerZeroCrossingCTF(t *testing.T) {
	l := 32
	ds := dataset(t, l, 60, micrograph.GenParams{Seed: 28, ApplyCTF: true, DefocusGroups: 1, PixelA: 3})
	ctfs := make([]ctf.Params, len(ds.Views))
	zeroCrossings := 0
	for i, v := range ds.Views {
		ctfs[i] = v.CTF
	}
	// Confirm the fixture really has sign changes inside the band.
	p := ctfs[0]
	prev := p.Eval(p.FreqOfBin(1, 0, l))
	for h := 2; h <= l/2; h++ {
		cur := p.Eval(p.FreqOfBin(h, 0, l))
		if prev*cur < 0 {
			zeroCrossings++
		}
		prev = cur
	}
	if zeroCrossings == 0 {
		t.Fatal("fixture CTF has no zero crossing inside the band; test is vacuous")
	}
	m, err := FromViews(ds.Images(), ds.TrueOrientations(), nil, ctfs, Options{WienerCTF: true, WienerEpsilon: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range m.Data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("non-finite voxel %d with near-zero Wiener denominators: %v", i, v)
		}
	}
	naive, err := FromViews(ds.Images(), ds.TrueOrientations(), nil, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ccW, ccN := volume.Correlation(ds.Truth, m), volume.Correlation(ds.Truth, naive); ccW <= ccN {
		t.Fatalf("Wiener inversion (%.4f) no better than naive (%.4f) despite zero crossings", ccW, ccN)
	}
}

// TestCTFMemoMatchesDirectEval: the per-worker radial CTF memo must be
// transparent — alternating parameter sets (cache thrash) and repeated
// sets (cache hits) both reproduce the oracle exactly.
func TestCTFMemoMatchesDirectEval(t *testing.T) {
	l := 16
	ds, centers, ctfs := ctfDataset(t, l, 9, 29)
	// One view at a time on one worker, alternating groups: every
	// consecutive pair of views differs in its CTF.
	opt := ParallelOptions{Options: Options{WienerCTF: true}, Workers: 1}
	oracle := New(l, Options{WienerCTF: true})
	sharded := NewSharded(l, opt)
	for i, v := range ds.Views {
		if err := oracle.Insert(v.Image, v.TrueOrient, centers[i], ctfs[i]); err != nil {
			t.Fatal(err)
		}
		if err := sharded.Insert(v.Image, v.TrueOrient, centers[i], ctfs[i]); err != nil {
			t.Fatal(err)
		}
	}
	// Same summation order as the oracle ⇒ the tolerance covers only the
	// tabulated phase ramp and the per-radius CTF value.
	if d := maxRelDiff(oracle.Finish(), sharded.Finish()); d > 1e-12 {
		t.Fatalf("CTF memo path diverges: max rel diff %g", d)
	}
}

// accumDigest is MapDigest for the accumulator pair: sha256 over l,
// then every num coefficient's real and imaginary bits, then every den
// value's bits, little-endian in flat storage order.
func accumDigest(s *Sharded) string {
	h := sha256.New()
	var buf [8]byte
	put := func(bits uint64) {
		binary.LittleEndian.PutUint64(buf[:], bits)
		h.Write(buf[:])
	}
	put(uint64(s.l))
	for _, v := range s.num {
		put(math.Float64bits(real(v)))
		put(math.Float64bits(imag(v)))
	}
	for _, v := range s.den {
		put(math.Float64bits(v))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestShardedEqualsOneShardParent pins the accumulation order: every
// voxel sums its contributions in view order, which is what the
// view-striped kernel this one replaced computed with a single shard.
// It hashes the num/den accumulators, not the finished map, so the
// insertion kernel's pin does not move with Finish; the digest was
// derived on 4dd756f. 70 views are three insert chunks, so chunk
// boundaries are covered at every worker count, and one Insert at a
// time equals one InsertViews call.
func TestShardedEqualsOneShardParent(t *testing.T) {
	const want = "89fab91c72d4a5e6eaef350a9089950ea3e0436ae3637280f7824006703f5bd8"
	l := 24
	ds, centers, ctfs := ctfDataset(t, l, 70, 32)
	images, orients := ds.Images(), ds.TrueOrientations()
	tasks := make([]ViewTask, len(images))
	for i := range tasks {
		tasks[i] = taskAt(images, orients, centers, ctfs, i)
	}
	opt := Options{WienerCTF: true}
	for _, w := range []int{1, 2, 3, 8} {
		s := NewSharded(l, ParallelOptions{Options: opt, Workers: w})
		if err := s.InsertViews(tasks); err != nil {
			t.Fatal(err)
		}
		if got := accumDigest(s); got != want {
			t.Fatalf("workers %d: accumulator digest %s, want %s", w, got, want)
		}
	}
	one := NewSharded(l, ParallelOptions{Options: opt, Workers: 3})
	for _, tk := range tasks {
		if err := one.Insert(tk.Image, tk.Orient, tk.Center, tk.CTF); err != nil {
			t.Fatal(err)
		}
	}
	if got := accumDigest(one); got != want {
		t.Fatalf("one Insert at a time: accumulator digest %s, want %s", got, want)
	}
}

// TestReconstructionAllocBytes bounds what one reconstruction
// allocates: the accumulator pair is 24·l³ bytes, Finish's half
// spectrum about 8·l³ and the map 8·l³, and the prepared-coefficient
// chunk well under 24·l³. A return to a full l³ spectrum in Finish or to
// per-worker or per-shard accumulators — the view-striped kernel
// allocated about 10 × 24·l³ — fails it.
func TestReconstructionAllocBytes(t *testing.T) {
	l := 32
	ds, centers, ctfs := ctfDataset(t, l, 40, 33)
	images, orients := ds.Images(), ds.TrueOrientations()
	limit := uint64(3 * 24 * l * l * l)
	for _, w := range []int{1, 4} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := FromViewsParallel(images, orients, centers, ctfs,
			ParallelOptions{Options: Options{WienerCTF: true}, Workers: w})
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		got := after.TotalAlloc - before.TotalAlloc
		t.Logf("workers %d: %d bytes, %.2f × 24·l³", w, got, float64(got)/float64(24*l*l*l))
		if got >= limit {
			t.Errorf("workers %d: one reconstruction allocated %d bytes, want < %d (3 × 24·l³)", w, got, limit)
		}
	}
}

func BenchmarkShardedInsertView(b *testing.B) {
	l := 32
	ds, centers, ctfs := ctfDataset(b, l, 16, 31)
	rec := NewSharded(l, ParallelOptions{Workers: 1})
	// Warm the scratch so the steady state is measured.
	for i, v := range ds.Views {
		if err := rec.Insert(v.Image, v.TrueOrient, centers[i], ctfs[i]); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v := ds.Views[i%len(ds.Views)]
		if err := rec.Insert(v.Image, v.TrueOrient, centers[i%len(ds.Views)], ctfs[i%len(ds.Views)]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSerialInsertView(b *testing.B) {
	l := 32
	ds, centers, ctfs := ctfDataset(b, l, 16, 31)
	rec := New(l, Options{WienerCTF: true})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v := ds.Views[i%len(ds.Views)]
		if err := rec.Insert(v.Image, v.TrueOrient, centers[i%len(ds.Views)], ctfs[i%len(ds.Views)]); err != nil {
			b.Fatal(err)
		}
	}
}
