package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

// withEnabled runs f with metric collection forced to on, restoring
// the previous state after.
func withEnabled(t *testing.T, f func()) {
	t.Helper()
	prev := SetEnabled(true)
	defer SetEnabled(prev)
	f()
}

func TestCounterDisabledIsNoop(t *testing.T) {
	c := NewCounter("test.counter.disabled")
	prev := SetEnabled(false)
	defer SetEnabled(prev)
	c.Inc()
	c.Add(41)
	if got := c.Value(); got != 0 {
		t.Fatalf("disabled counter moved: %d", got)
	}
}

func TestCounterAndVec(t *testing.T) {
	c := NewCounter("test.counter.basic")
	v := NewLabeledCounterVec("test.vec.labeled", "kind", "a", "b", "c", "d")
	withEnabled(t, func() {
		c.Inc()
		c.Add(2)
		v.Inc(0)
		v.Add(3, 10)
		v.Add(99, 1) // clamps to last cell
		v.Add(-5, 1) // clamps to first cell
	})
	if got := c.Value(); got != 3 {
		t.Errorf("counter = %d, want 3", got)
	}
	if got := v.Value(0); got != 2 {
		t.Errorf("vec[0] = %d, want 2 (Inc + clamped -5)", got)
	}
	if got := v.Value(3); got != 11 {
		t.Errorf("vec[3] = %d, want 11 (Add 10 + clamped 99)", got)
	}
	if got := v.Total(); got != 13 {
		t.Errorf("vec total = %d, want 13", got)
	}
	vals := Values()
	if _, ok := vals["test.vec.labeled{kind=b}"]; !ok || vals["test.vec.labeled{kind=d}"] != 11 {
		t.Errorf("labelled vec cells = %d, %d (present %v), want 0, 11", vals["test.vec.labeled{kind=b}"], vals["test.vec.labeled{kind=d}"], ok)
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram("test.hist.basic", 6)
	withEnabled(t, func() {
		h.Observe(0)    // bucket 0
		h.Observe(1)    // bucket 1
		h.Observe(2)    // bucket 2
		h.Observe(3)    // bucket 2
		h.Observe(4)    // bucket 3
		h.Observe(1000) // clamps to bucket 5
	})
	if got := h.Count(); got != 6 {
		t.Errorf("count = %d, want 6", got)
	}
	if got := h.Sum(); got != 1010 {
		t.Errorf("sum = %d, want 1010", got)
	}
	vals := Values()
	wants := map[string]int64{
		"test.hist.basic.bucket[0]": 1,
		"test.hist.basic.bucket[1]": 1,
		"test.hist.basic.bucket[2]": 2,
		"test.hist.basic.bucket[3]": 1,
		"test.hist.basic.bucket[4]": 0,
		"test.hist.basic.bucket[5]": 1,
		"test.hist.basic.count":     6,
		"test.hist.basic.sum":       1010,
	}
	for name, want := range wants {
		if vals[name] != want {
			t.Errorf("%s = %d, want %d", name, vals[name], want)
		}
	}
}

func TestDuplicateNamePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate instrument name did not panic")
		}
	}()
	NewCounter("test.counter.dup")
	NewCounter("test.counter.dup")
}

func TestSnapshotSortedAndResettable(t *testing.T) {
	b := NewCounter("test.order.b")
	a := NewCounter("test.order.a")
	withEnabled(t, func() {
		a.Add(1)
		b.Add(2)
	})
	ms := Snapshot()
	for i := 1; i < len(ms); i++ {
		if ms[i-1].Name >= ms[i].Name {
			t.Fatalf("snapshot not strictly sorted: %q then %q", ms[i-1].Name, ms[i].Name)
		}
	}
	ResetAll()
	if a.Value() != 0 || b.Value() != 0 {
		t.Fatalf("ResetAll left values: a=%d b=%d", a.Value(), b.Value())
	}
}

func TestConcurrentCounters(t *testing.T) {
	c := NewCounter("test.counter.concurrent")
	withEnabled(t, func() {
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 1000; i++ {
					c.Inc()
				}
			}()
		}
		wg.Wait()
	})
	if got := c.Value(); got != 8000 {
		t.Fatalf("concurrent counter = %d, want 8000", got)
	}
}

func TestTraceSpanRecordingAndOrder(t *testing.T) {
	tr := StartTrace()
	defer EndTrace()
	// Recorded out of order on purpose; Events must sort.
	Span(1, 0, "late", "test", 2.0, 3.0)
	Span(0, 0, "b", "test", 1.0, 2.0)
	Span(0, 0, "a", "test", 0.0, 1.0)
	h := StartSpan(0, 1, "pooled", "test", 0.5)
	h.SetArg("view", 7)
	h.SetArg("matchings", 42)
	h.End(0.75)
	ev := tr.Events()
	if len(ev) != 4 {
		t.Fatalf("got %d events, want 4", len(ev))
	}
	wantOrder := []string{"a", "b", "pooled", "late"}
	for i, name := range wantOrder {
		if ev[i].Name != name {
			t.Fatalf("event %d = %q, want %q (order %v)", i, ev[i].Name, name, ev)
		}
	}
	p := ev[2]
	if p.Args[0] != (Arg{Key: "view", Value: 7}) || p.Args[1] != (Arg{Key: "matchings", Value: 42}) {
		t.Fatalf("pooled span args = %+v", p.Args)
	}
}

func TestTraceInactiveIsNoop(t *testing.T) {
	if ActiveTrace() != nil {
		t.Fatal("trace unexpectedly active at test start")
	}
	Span(0, 0, "x", "test", 0, 1)
	if h := StartSpan(0, 0, "x", "test", 0); h != nil {
		t.Fatal("StartSpan returned non-nil with no active trace")
	}
	var h *SpanHandle
	h.SetArg("k", 1) // must not panic
	h.End(1)         // must not panic
}

// TestTraceKeepsNewest: a trace is a ring of the newest traceCap
// events — a daemon that traces from boot must not grow without limit.
// The oldest events are the ones dropped, the retained ones still come
// back in the deterministic sorted order, and the export says how many
// are gone.
func TestTraceKeepsNewest(t *testing.T) {
	tr := StartTrace()
	const extra = 10
	for i := 0; i < traceCap+extra; i++ {
		Span(0, 0, "s", "test", float64(i), float64(i)+0.5)
	}
	EndTrace()
	ev := tr.Events()
	if len(ev) != traceCap {
		t.Fatalf("retained %d events, want traceCap = %d", len(ev), traceCap)
	}
	for i, e := range ev {
		if want := float64(i + extra); e.Start != want {
			t.Fatalf("event %d starts at %g, want %g (oldest %d dropped, rest in order)", i, e.Start, want, extra)
		}
	}
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Metadata struct {
			Dropped int64 `json:"dropped_events"`
		} `json:"metadata"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("exporter emitted invalid JSON: %v", err)
	}
	if doc.Metadata.Dropped != extra {
		t.Errorf("export reports %d dropped events, want %d", doc.Metadata.Dropped, extra)
	}
}

func TestWriteChromeTrace(t *testing.T) {
	tr := StartTrace()
	Span(0, 0, "a.3 fft2d", "parfft", 0, 0.5)
	Instant(1, 0, "slide", "refine", 0.25, [2]Arg{{Key: "count", Value: 3}})
	EndTrace()
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("exporter emitted invalid JSON: %v\n%s", err, buf.String())
	}
	// 2 metadata records (pids 0 and 1) + 2 events.
	if len(doc.TraceEvents) != 4 {
		t.Fatalf("got %d records, want 4: %s", len(doc.TraceEvents), buf.String())
	}
	var span, inst map[string]any
	for _, e := range doc.TraceEvents {
		switch e["ph"] {
		case "X":
			span = e
		case "i":
			inst = e
		}
	}
	if span == nil || inst == nil {
		t.Fatalf("missing span or instant: %s", buf.String())
	}
	if span["ts"] != float64(0) || span["dur"] != float64(500000) {
		t.Errorf("span ts/dur = %v/%v, want 0/500000", span["ts"], span["dur"])
	}
	if inst["args"].(map[string]any)["count"] != float64(3) {
		t.Errorf("instant args = %v", inst["args"])
	}
	// Deterministic bytes: re-export must match exactly.
	var buf2 bytes.Buffer
	if err := tr.WriteChromeTrace(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Error("re-export produced different bytes")
	}
}

func TestWriteTextAndJSON(t *testing.T) {
	c := NewCounter("test.export.counter")
	withEnabled(t, func() { c.Add(5) })
	var txt bytes.Buffer
	if err := WriteProm(&txt); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(txt.String(), "test_export_counter 5\n") {
		t.Errorf("text export missing counter: %s", txt.String())
	}
	var js bytes.Buffer
	if err := WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	var doc metricsDoc
	if err := json.Unmarshal(js.Bytes(), &doc); err != nil {
		t.Fatalf("invalid metrics JSON: %v", err)
	}
	if doc.SchemaVersion != 1 {
		t.Errorf("schema_version = %d, want 1", doc.SchemaVersion)
	}
	found := false
	for _, m := range doc.Metrics {
		if m.Name == "test.export.counter" && m.Value == 5 {
			found = true
		}
	}
	if !found {
		t.Errorf("JSON export missing counter: %s", js.String())
	}
}

// BenchmarkCounterDisabled pins the disabled-path cost: one atomic
// load, no allocation.
func BenchmarkCounterDisabled(b *testing.B) {
	c := NewCounter("bench.counter.disabled")
	prev := SetEnabled(false)
	defer SetEnabled(prev)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkCounterEnabled(b *testing.B) {
	c := NewCounter("bench.counter.enabled")
	prev := SetEnabled(true)
	defer SetEnabled(prev)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

// BenchmarkSpanDisabled proves bracketing a region with no active
// trace costs one atomic load and zero allocations.
func BenchmarkSpanDisabled(b *testing.B) {
	if ActiveTrace() != nil {
		b.Fatal("trace active")
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h := StartSpan(0, 0, "k", "bench", 0)
		h.End(1)
	}
	if n := testing.AllocsPerRun(100, func() {
		h := StartSpan(0, 0, "k", "bench", 0)
		h.End(1)
	}); n != 0 {
		b.Fatalf("disabled span allocates %v/op", n)
	}
}

// BenchmarkSpanEnabled proves the pooled span handle itself is
// alloc-free; only the trace's event slice grows (amortised append).
func BenchmarkSpanEnabled(b *testing.B) {
	tr := StartTrace()
	defer EndTrace()
	// Pre-size the event slice so the benchmark measures the span
	// machinery, not slice growth.
	tr.mu.Lock()
	tr.events = make([]Event, 0, b.N+101)
	tr.mu.Unlock()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h := StartSpan(0, 0, "k", "bench", 0)
		h.End(1)
	}
	if n := testing.AllocsPerRun(100, func() {
		h := StartSpan(0, 0, "k", "bench", 0)
		h.End(1)
	}); n != 0 {
		b.Fatalf("pooled span allocates %v/op", n)
	}
}
