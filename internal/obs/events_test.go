package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

func TestGaugeDisabledIsNoop(t *testing.T) {
	g := NewGauge("test.gauge.disabled")
	prev := SetEnabled(false)
	defer SetEnabled(prev)
	g.Set(7)
	g.Inc()
	if got := g.Value(); got != 0 {
		t.Fatalf("disabled gauge moved: %d", got)
	}
}

func TestGaugeMovesBothWays(t *testing.T) {
	g := NewGauge("test.gauge.basic")
	withEnabled(t, func() {
		g.Set(5)
		g.Add(3)
		g.Dec()
		g.Dec()
	})
	if got := g.Value(); got != 6 {
		t.Fatalf("gauge = %d, want 6", got)
	}
	if Values()["test.gauge.basic"] != 6 {
		t.Fatalf("snapshot missing gauge: %v", Values()["test.gauge.basic"])
	}
	ResetAll()
	if g.Value() != 0 {
		t.Fatal("reset left gauge value")
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := NewHistogram("test.hist.quantile", 8)
	withEnabled(t, func() {
		// 10 observations of 1 (bucket 1), 10 of 2 (bucket 2).
		for i := 0; i < 10; i++ {
			h.Observe(1)
			h.Observe(2)
		}
	})
	// Median sits exactly at the bucket-1/bucket-2 boundary.
	if got := h.Quantile(0.5); got < 1 || got > 2 {
		t.Errorf("p50 = %g, want within [1,2]", got)
	}
	// p25 interpolates inside bucket 1 ([1,2)); p99 inside bucket 2 ([2,4)).
	if got := h.Quantile(0.25); got < 1 || got >= 2 {
		t.Errorf("p25 = %g, want in [1,2)", got)
	}
	if got := h.Quantile(0.99); got < 2 || got > 4 {
		t.Errorf("p99 = %g, want in [2,4]", got)
	}
	// Monotone in q.
	last := -1.0
	for _, q := range []float64{0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1} {
		v := h.Quantile(q)
		if v < last {
			t.Fatalf("quantile not monotone: q=%g gives %g after %g", q, v, last)
		}
		last = v
	}
}

func TestQuantileFromBucketsEdges(t *testing.T) {
	if got := QuantileFromBuckets(nil, 0.5); got != 0 {
		t.Errorf("empty buckets: %g", got)
	}
	if got := QuantileFromBuckets([]int64{0, 0, 0}, 0.9); got != 0 {
		t.Errorf("all-zero buckets: %g", got)
	}
	// Single populated bucket 0 (v <= 0): every quantile is 0.
	if got := QuantileFromBuckets([]int64{5}, 0.99); got != 0 {
		t.Errorf("zero-bucket distribution: %g", got)
	}
	// Out-of-range q clamps.
	b := []int64{0, 4}
	if got := QuantileFromBuckets(b, -1); got != QuantileFromBuckets(b, 0) {
		t.Error("q<0 did not clamp")
	}
	if got := QuantileFromBuckets(b, 2); got != QuantileFromBuckets(b, 1) {
		t.Errorf("q>1 did not clamp: %g", got)
	}
}

func TestEventLogRingAndCursor(t *testing.T) {
	l := NewEventLog(4)
	for i := 1; i <= 6; i++ {
		l.Emit("k", "job-1", i, float64(i), [EventFieldsMax]EventField{{Key: "n", Value: int64(i)}})
	}
	// Capacity 4, six emits: seqs 3..6 retained, 1..2 overwritten.
	evs, dropped := l.Since(0)
	if dropped != 2 {
		t.Fatalf("dropped = %d, want 2", dropped)
	}
	if len(evs) != 4 || evs[0].Seq != 3 || evs[3].Seq != 6 {
		t.Fatalf("retained window %+v", evs)
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq != evs[i-1].Seq+1 {
			t.Fatalf("non-contiguous seqs: %+v", evs)
		}
	}
	// A cursor inside the window reads gap-free.
	evs, dropped = l.Since(4)
	if dropped != 0 || len(evs) != 2 || evs[0].Seq != 5 {
		t.Fatalf("since(4): %d dropped, %+v", dropped, evs)
	}
	// A cursor at the head reads nothing.
	if evs, dropped = l.Since(6); len(evs) != 0 || dropped != 0 {
		t.Fatalf("since(head): %d dropped, %+v", dropped, evs)
	}
	if l.LastSeq() != 6 {
		t.Fatalf("LastSeq = %d", l.LastSeq())
	}
}

func TestEventLogWait(t *testing.T) {
	l := NewEventLog(8)
	// Already-satisfied wait: channel closed immediately.
	l.Emit("k", "", -1, 0, [EventFieldsMax]EventField{})
	select {
	case <-l.Wait(0):
	default:
		t.Fatal("Wait(0) not satisfied with one record present")
	}
	// Blocked wait wakes on the next emit.
	ch := l.Wait(1)
	select {
	case <-ch:
		t.Fatal("Wait(head) satisfied early")
	default:
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-ch
	}()
	l.Emit("k2", "", -1, 1, [EventFieldsMax]EventField{})
	wg.Wait()
	evs, _ := l.Since(1)
	if len(evs) != 1 || evs[0].Kind != "k2" {
		t.Fatalf("post-wait read: %+v", evs)
	}
}

func TestEventJSONLDeterministic(t *testing.T) {
	l := NewEventLog(8)
	l.Emit("admit", "job-000001", -1, 1, [EventFieldsMax]EventField{{Key: "queue_depth", Value: 1}})
	l.Emit("level_end", "job-000001", 0, 2.5, [EventFieldsMax]EventField{
		{Key: "evals", Value: 123}, {Key: "slides", Value: 4},
	})
	var a, b bytes.Buffer
	if err := l.WriteJSONL(&a); err != nil {
		t.Fatal(err)
	}
	if err := l.WriteJSONL(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("re-export produced different bytes")
	}
	want := `{"seq":1,"logical_ts":1,"job":"job-000001","level":-1,"kind":"admit","fields":{"queue_depth":1}}
{"seq":2,"logical_ts":2.5,"job":"job-000001","level":0,"kind":"level_end","fields":{"evals":123,"slides":4}}
`
	if a.String() != want {
		t.Fatalf("JSONL:\n%s\nwant:\n%s", a.String(), want)
	}
}

func TestEventRecordJSONRoundTrip(t *testing.T) {
	in := EventRecord{Seq: 9, TS: 3.25, Job: "job-000002", Level: 1, Kind: "checkpoint",
		Fields: [EventFieldsMax]EventField{{Key: "journal_bytes", Value: 512}, {Key: "ticks", Value: 3}}}
	data, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out EventRecord
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Fatalf("round trip: %+v vs %+v", out, in)
	}
	// Re-encoding the decoded record reproduces the original bytes —
	// field order survives.
	if again, _ := json.Marshal(out); !bytes.Equal(again, data) {
		t.Fatalf("re-encode %s vs %s", again, data)
	}
	// A process-level record (no job) round-trips too.
	in = EventRecord{Seq: 1, TS: 0, Level: -1, Kind: "boot"}
	data, _ = json.Marshal(in)
	out = EventRecord{}
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Fatalf("jobless round trip: %+v vs %+v", out, in)
	}
}

func TestEmitInactiveIsNoop(t *testing.T) {
	if ActiveEvents() != nil {
		t.Fatal("event log unexpectedly active at test start")
	}
	Emit("k", "job", 0, 1, [EventFieldsMax]EventField{}) // must not panic
	l := StartEvents(16)
	Emit("k", "job", 0, 1, [EventFieldsMax]EventField{{Key: "a", Value: 1}})
	if got := StopEvents(); got != l {
		t.Fatal("StopEvents returned a different log")
	}
	if evs, _ := l.Since(0); len(evs) != 1 {
		t.Fatalf("active log missed the emit: %+v", evs)
	}
	Emit("k", "job", 0, 2, [EventFieldsMax]EventField{})
	if evs, _ := l.Since(0); len(evs) != 1 {
		t.Fatal("emit after StopEvents still recorded")
	}
}

func TestWritePromExposition(t *testing.T) {
	c := NewCounter("test.prom.counter")
	g := NewGauge("test.prom.gauge")
	h := NewHistogram("test.prom.hist", 4)
	lv := NewLabeledCounterVec("test.prom.labeled", "kind", "a", "b")
	withEnabled(t, func() {
		c.Add(3)
		g.Set(-2)
		lv.Add(1, 5)
		h.Observe(0) // bucket 0
		h.Observe(1) // bucket 1
		h.Observe(9) // clamps to bucket 3 (+Inf)
	})
	var buf bytes.Buffer
	if err := WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE test_prom_counter counter\ntest_prom_counter 3\n",
		"# TYPE test_prom_gauge gauge\ntest_prom_gauge -2\n",
		"# TYPE test_prom_labeled counter\ntest_prom_labeled{kind=\"a\"} 0\ntest_prom_labeled{kind=\"b\"} 5\n",
		`test_prom_hist_bucket{le="0"} 1`,
		`test_prom_hist_bucket{le="1"} 2`,
		`test_prom_hist_bucket{le="3"} 2`,
		`test_prom_hist_bucket{le="+Inf"} 3`,
		"test_prom_hist_sum 10",
		"test_prom_hist_count 3",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// Deterministic: re-export must match exactly.
	var buf2 bytes.Buffer
	if err := WriteProm(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("re-export produced different bytes")
	}
}

// BenchmarkEmitDisabled is the alloc guard for the event log's
// disabled path: with no active log, an emit is one atomic load and
// zero allocations — the same contract as counters and spans.
func BenchmarkEmitDisabled(b *testing.B) {
	if ActiveEvents() != nil {
		b.Fatal("event log active")
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Emit("level_end", "job-000001", 2, 1.5, [EventFieldsMax]EventField{
			{Key: "evals", Value: int64(i)},
		})
	}
	if n := testing.AllocsPerRun(100, func() {
		Emit("level_end", "job-000001", 2, 1.5, [EventFieldsMax]EventField{
			{Key: "evals", Value: 7},
		})
	}); n != 0 {
		b.Fatalf("disabled emit allocates %v/op", n)
	}
}

// BenchmarkEmitEnabled records into a pre-sized ring; the notify
// channel replacement is the only allocation.
func BenchmarkEmitEnabled(b *testing.B) {
	StartEvents(1 << 16)
	defer StopEvents()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Emit("level_end", "job-000001", 2, 1.5, [EventFieldsMax]EventField{
			{Key: "evals", Value: int64(i)},
		})
	}
}
