package workload

import (
	"strings"
	"testing"

	"repro/internal/cycle"
)

// TestRunCycleDriverPlateau pins the outer loop's termination claim on
// the scaled sindbis phantom at the experiment's depth (3 levels, 8
// cycles at most): the plateau rule stops the run before
// the hard cycle cap, every completed cycle carries an FSC record, and
// the report renders one row per cycle.
func TestRunCycleDriverPlateau(t *testing.T) {
	spec := SindbisSpec().Scaled(3)
	res, err := RunCycleDriver(spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stopped != cycle.StopPlateau {
		t.Errorf("stopped %q after %d cycles, want plateau before the cap", res.Stopped, len(res.History))
	}
	if len(res.History) >= 8 {
		t.Errorf("ran all %d cycles; plateau never fired", len(res.History))
	}
	for i, rec := range res.History {
		if rec.Cycle != i {
			t.Errorf("history[%d] has cycle %d", i, rec.Cycle)
		}
		if rec.ResolutionA <= 0 {
			t.Errorf("cycle %d has no 0.5 crossing", i)
		}
	}
	last := res.History[len(res.History)-1]
	if last.Plateau < 2 {
		t.Errorf("final plateau counter %d, want ≥ window (2)", last.Plateau)
	}

	var w strings.Builder
	if err := WritePlateau(&w, res); err != nil {
		t.Fatal(err)
	}
	out := w.String()
	if got := strings.Count(out, "\n"); got != len(res.History)+3 {
		t.Errorf("report has %d lines, want %d:\n%s", got, len(res.History)+3, out)
	}
	if !strings.Contains(out, "stopped: plateau") {
		t.Errorf("report missing stop verdict:\n%s", out)
	}
}
