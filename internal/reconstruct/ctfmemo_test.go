package reconstruct

import (
	"math"
	"testing"

	"repro/internal/ctf"
)

// TestCTFMemoMatchesFresh: a prepare worker that has seen many
// parameter sets, interleaved and more of them than it keeps tables
// for, prepares every view bit for bit as a fresh worker does, whose
// one table fills in band order from that view alone.
func TestCTFMemoMatchesFresh(t *testing.T) {
	const l, sets = 20, ctfMemoSize + 5
	ds, centers, _ := ctfDataset(t, l, 24, 71)
	params := make([]ctf.Params, sets)
	for i := range params {
		params[i] = ctf.Typical(2.5)
		params[i].DefocusA *= 0.7 + 0.05*float64(i)
	}
	task := func(i, set int) ViewTask {
		v := ds.Views[i%len(ds.Views)]
		return ViewTask{Image: v.Image, Orient: v.TrueOrient, Center: centers[i%len(ds.Views)], CTF: params[set]}
	}
	opt := ParallelOptions{Options: Options{WienerCTF: true}, Workers: 1}
	warm := NewSharded(l, opt)
	warm.reserve(1)
	// Sets arrive in a scrambled, repeating order, so tables are kept,
	// reused and recycled.
	for i := 0; i < 4*sets; i++ {
		set := (i * 5) % sets
		if i%3 == 0 {
			set = i % 4
		}
		warm.prepare(warm.preps[0], task(i, set), 0)
		fresh := NewSharded(l, opt)
		fresh.reserve(1)
		fresh.prepare(fresh.preps[0], task(i, set), 0)
		for j, want := range fresh.band[:fresh.nBand] {
			got := warm.band[j]
			if math.Float64bits(got.w) != math.Float64bits(want.w) ||
				math.Float64bits(real(got.val)) != math.Float64bits(real(want.val)) ||
				math.Float64bits(imag(got.val)) != math.Float64bits(imag(want.val)) {
				t.Fatalf("view %d (set %d): band entry %d = %v, fresh worker %v", i, set, j, got, want)
			}
		}
	}
	if n := len(warm.preps[0].ctfs); n != ctfMemoSize {
		t.Fatalf("worker keeps %d tables, want %d", n, ctfMemoSize)
	}
}
