package workload

import (
	"runtime"
	"runtime/metrics"
	"sync"
	"testing"
	"time"
)

// BenchmarkDatasetBuild times one dataset synthesis, phantom plus
// views, at three sizes: cycle_exhaustive's (the asymmetric phantom at
// L = 40, 30 views), recon_fsc's (the reo phantom at L = 64, 160 views
// with CTF in four defocus groups) and ROADMAP's cycle_large (sindbis
// at L = 128, 500 views). Besides ns/op it reports
// peak-heap-MB, the largest heap (objects live or not yet swept) that a
// 1 ms sampler sees during the builds. The build runs on GOMAXPROCS
// workers, so set -cpu to compare worker counts.
//
//	go test -run '^$' -bench DatasetBuild -benchtime 1x ./internal/workload
func BenchmarkDatasetBuild(b *testing.B) {
	exhaustive := AsymmetricSpec()
	exhaustive.NumViews = 30
	recon := ReoSpec()
	recon.L, recon.NumViews = 64, 160
	recon.ApplyCTF, recon.DefocusGroups, recon.Seed = true, 4, 1
	large := SindbisSpec()
	large.L, large.NumViews = 128, 500
	for _, c := range []struct {
		name string
		spec DatasetSpec
	}{{"cycle_exhaustive", exhaustive}, {"recon_fsc", recon}, {"cycle_large", large}} {
		b.Run(c.name, func(b *testing.B) {
			runtime.GC()
			stop := sampleHeapPeak()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.spec.Build()
			}
			b.StopTimer()
			b.ReportMetric(float64(stop())/1e6, "peak-heap-MB")
		})
	}
}

// sampleHeapPeak polls the heap's object bytes every millisecond until
// the returned function is called, which returns the largest value
// seen.
func sampleHeapPeak() (stop func() uint64) {
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	var peak uint64
	read := func() {
		metrics.Read(s)
		peak = max(peak, s[0].Value.Uint64())
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-done:
				read()
				return
			case <-tick.C:
				read()
			}
		}
	}()
	return func() uint64 {
		close(done)
		wg.Wait()
		return peak
	}
}
