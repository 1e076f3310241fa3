package micrograph

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"runtime"
	"testing"

	"repro/internal/phantom"
)

// hashSpec is a small dataset that exercises every draw and every
// synthesis step: noise, CTF in three defocus groups and centre jitter,
// on an odd box.
func hashSpec() (int, GenParams) {
	return 25, GenParams{
		NumViews:      12,
		PixelA:        2.5,
		SNR:           1.5,
		CenterJitter:  1.5,
		ApplyCTF:      true,
		DefocusGroups: 3,
		Seed:          21,
	}
}

// datasetHash is a SHA-256 over every view's image bits, orientation,
// centre and group, in view order.
func datasetHash(ds *Dataset) string {
	h := sha256.New()
	var b [8]byte
	put := func(v float64) {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	for _, v := range ds.Views {
		for _, x := range v.Image.Data {
			put(x)
		}
		put(v.TrueOrient.Theta)
		put(v.TrueOrient.Phi)
		put(v.TrueOrient.Omega)
		put(v.TrueCenter[0])
		put(v.TrueCenter[1])
		put(v.CTF.DefocusA)
		binary.LittleEndian.PutUint64(b[:], uint64(v.Group))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGenerateBitIdenticalToParent pins the synthesized dataset's bits.
// The constant was derived at commit 6a738fa, when Generate drew and
// synthesized every view serially and projection.Real marched the whole
// box through Interp's corner loop; drawing serially and synthesizing on
// the pool must not move a bit.
func TestGenerateBitIdenticalToParent(t *testing.T) {
	const want = "f225cb6164928b85ebc77ef69a600cb17f771e79df9b6e1e3c257265739d9aae"
	l, p := hashSpec()
	got := datasetHash(Generate(phantom.Asymmetric(l, 6, 1), p))
	if got != want {
		t.Fatalf("dataset hash %s, want %s", got, want)
	}
}

// TestGenerateWorkersBitIdentical holds Generate to the same bits at
// GOMAXPROCS 1, 2 and 3: the pool's scheduling must not reach the output.
func TestGenerateWorkersBitIdentical(t *testing.T) {
	l, p := hashSpec()
	truth := phantom.Asymmetric(l, 6, 1)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var ref string
	for _, procs := range []int{1, 2, 3} {
		runtime.GOMAXPROCS(procs)
		got := datasetHash(Generate(truth, p))
		if procs == 1 {
			ref = got
		} else if got != ref {
			t.Fatalf("GOMAXPROCS %d: dataset hash %s, want %s (GOMAXPROCS 1)", procs, got, ref)
		}
	}
}
