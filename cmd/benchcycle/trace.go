package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call (nothing inside the program is instrumented). Parent is the
// index of the span that caused it, -1 for a root.
type span struct {
	Name   string
	Layer  string
	Cycle  int
	Track  int // timeline row: 0 for the stage replay, the client index on jobs_small
	Parent int
	Start  time.Duration // since the tracer's epoch
	End    time.Duration
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	workload string
	epoch    time.Time

	mu    sync.Mutex
	spans []span
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, epoch: time.Now()}
}

// begin opens a span and returns its index for end and for children.
func (t *tracer) begin(name, layer string, cycle, track, parent int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Layer: layer, Cycle: cycle, Track: track, Parent: parent, Start: time.Since(t.epoch)})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) {
	end := time.Since(t.epoch)
	t.mu.Lock()
	t.spans[i].End = end
	t.mu.Unlock()
}

// record adds a span whose interval was timed by the caller.
func (t *tracer) record(name, layer string, track, parent int, start, end time.Time) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Layer: layer, Cycle: -1, Track: track, Parent: parent, Start: start.Sub(t.epoch), End: end.Sub(t.epoch)})
	return len(t.spans) - 1
}

// dur is span i's duration.
func (t *tracer) dur(i int) time.Duration { return t.spans[i].End - t.spans[i].Start }

// budget is the self-time split of everything under one root span: a
// span's self time is its duration minus what its children cover.
type budget struct {
	wall    time.Duration            // the root's duration
	layers  map[string]time.Duration // self time by layer, descendants only
	rootOwn time.Duration            // root time no child span covers
}

// budgetUnder splits the root span's wall time among its descendants.
// Children of one parent run one after another on one track, so the
// covered part of a span is the sum of its children's durations.
func (t *tracer) budgetUnder(root int) budget {
	covered := make([]time.Duration, len(t.spans))
	under := make([]bool, len(t.spans))
	under[root] = true
	for i, s := range t.spans {
		if s.Parent >= 0 && under[s.Parent] { // parents precede children
			under[i] = true
			covered[s.Parent] += s.End - s.Start
		}
	}
	b := budget{wall: t.dur(root), layers: map[string]time.Duration{}}
	for i, s := range t.spans {
		if !under[i] {
			continue
		}
		self := s.End - s.Start - covered[i]
		if i == root {
			b.rootOwn = self
		} else {
			b.layers[s.Layer] += self
		}
	}
	return b
}

// coverage is the share of the root's wall time that a named child
// span accounts for — "a budget that sums" means this stays near 1.
func (b budget) coverage() float64 {
	if b.wall <= 0 {
		return 0
	}
	return 1 - float64(b.rootOwn)/float64(b.wall)
}

// total sums the durations of the spans under root that match name
// (and cycle, unless cycle is -1), with how many matched.
func (t *tracer) total(root int, name string, cycle int) (time.Duration, int) {
	var sum time.Duration
	n := 0
	for i, s := range t.spans {
		if s.Name != name || (cycle >= 0 && s.Cycle != cycle) {
			continue
		}
		for p := s.Parent; p >= 0; p = t.spans[p].Parent {
			if p == root {
				sum += t.dur(i)
				n++
				break
			}
		}
	}
	return sum, n
}

// chromeEvent is one complete ("X") event of the Chrome trace-event
// format; chrome://tracing and ui.perfetto.dev open the file as is.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // µs
	Dur  float64        `json:"dur"` // µs
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// writeChrome writes every span to path as Chrome trace-event JSON.
func (t *tracer) writeChrome(path string) error {
	events := make([]chromeEvent, len(t.spans))
	for i, s := range t.spans {
		events[i] = chromeEvent{
			Name: s.Name, Cat: s.Layer, Ph: "X",
			Ts:  float64(s.Start) / float64(time.Microsecond),
			Dur: float64(s.End-s.Start) / float64(time.Microsecond),
			Pid: 1, Tid: s.Track,
			Args: map[string]any{"workload": t.workload, "cycle": s.Cycle, "span": i, "parent": s.Parent},
		}
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
