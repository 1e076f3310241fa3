package micrograph_test

import (
	"testing"

	"repro/internal/micrograph"
	"repro/internal/workload"
)

// TestBenchmarkDatasetsBitIdentical pins the bits of the three datasets
// the benchmark builds, in datasetHash's scheme: sindbis at 40 views
// (cycle_adaptive), asymmetric at 30 views (cycle_exhaustive) and reo
// at L = 64, 160 views, CTF in four defocus groups, seed 1 (recon_fsc).
// The hashes were recorded at commit 98d80c8, before projection.Real
// clipped its rays to the density's support sphere; the sphere skips
// only exact +0 samples and must not move a bit.
func TestBenchmarkDatasetsBitIdentical(t *testing.T) {
	sindbis := workload.SindbisSpec()
	sindbis.NumViews = 40
	asym := workload.AsymmetricSpec()
	asym.NumViews = 30
	reo := workload.ReoSpec()
	reo.L, reo.NumViews = 64, 160
	reo.ApplyCTF, reo.DefocusGroups, reo.Seed = true, 4, 1
	for _, c := range []struct {
		name string
		spec workload.DatasetSpec
		want string
	}{
		{"cycle_adaptive", sindbis, "f1da8266a47b3e3b38319212cb44a813132ebffda8f570ef785a900223a258db"},
		{"cycle_exhaustive", asym, "38b1c4f3f2cf01a0af46d50b54f0ac8af24ed4f83bf3f3dc73699386b2ea3f7c"},
		{"recon_fsc", reo, "d200590215553f5056fc5fe919cc1173559485c2e4c17cc8fac7523e638ef867"},
	} {
		if got := micrograph.DatasetHash(c.spec.Build()); got != c.want {
			t.Errorf("%s: dataset hash %s, want %s", c.name, got, c.want)
		}
	}
}
