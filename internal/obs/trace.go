// Trace: a timeline of spans on the *simulated* cluster clock,
// exported in the Chrome trace_event JSON format so a run can be opened
// in chrome://tracing or https://ui.perfetto.dev. Timestamps are
// simulated seconds (converted to microseconds on export), Pid is the
// simulated node rank and Tid a per-node row — wall-clock time never
// enters a trace, which is what keeps traces reproducible bit-for-bit.
package obs

import (
	"bytes"
	"errors"
	"io"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// Event is one Chrome trace_event entry. Phase "X" is a complete span
// (Start..End), phase "i" an instant at Start.
type Event struct {
	Name  string
	Cat   string
	Phase string
	Pid   int
	Tid   int
	Start float64 // simulated seconds
	End   float64 // simulated seconds; == Start for instants
	Args  [2]Arg  // fixed-size so recording never allocates
}

// Arg is one key/value annotation on an event. A zero Key means unset.
type Arg struct {
	Key   string
	Value int64
}

// traceCap bounds a trace: a long-lived recorder (the refined daemon
// traces from boot) keeps the newest traceCap events and counts the
// rest as dropped. At 128 bytes an event that is 2 MiB.
const traceCap = 1 << 14

// Trace accumulates events, keeping the newest traceCap. All methods
// are safe for concurrent use.
type Trace struct {
	mu      sync.Mutex
	events  []Event // grows to traceCap once, then overwrites in place
	head    int     // slot of the oldest event once the ring is full
	dropped int64   // events overwritten so far
}

// active is the currently recording trace, or nil. A plain atomic
// pointer keeps the disabled-path cost of Span/StartSpan to one load.
var active atomic.Pointer[Trace]

// StartTrace installs a fresh trace as the active recorder and returns
// it. Passing nil to EndTrace semantics: call EndTrace to stop.
func StartTrace() *Trace {
	t := &Trace{}
	active.Store(t)
	return t
}

// EndTrace stops recording and returns the trace that was active, if
// any.
func EndTrace() *Trace {
	return active.Swap(nil)
}

// ActiveTrace returns the currently recording trace, or nil.
func ActiveTrace() *Trace { return active.Load() }

func (t *Trace) record(e Event) {
	t.mu.Lock()
	if len(t.events) < traceCap {
		t.events = append(t.events, e)
	} else {
		t.events[t.head] = e
		t.head = (t.head + 1) % traceCap
		t.dropped++
	}
	t.mu.Unlock()
}

// Events returns a copy of the retained events sorted by
// (Pid, Tid, Start, End, Name) — a deterministic order regardless of
// the goroutine interleaving that recorded them.
func (t *Trace) Events() []Event {
	ev, _ := t.snapshot()
	return ev
}

// snapshot is Events plus the number of older events the ring has
// overwritten, read under one lock so the two agree.
func (t *Trace) snapshot() ([]Event, int64) {
	t.mu.Lock()
	ev := make([]Event, len(t.events))
	copy(ev, t.events)
	dropped := t.dropped
	t.mu.Unlock()
	sort.Slice(ev, func(i, j int) bool {
		a, b := &ev[i], &ev[j]
		if a.Pid != b.Pid {
			return a.Pid < b.Pid
		}
		if a.Tid != b.Tid {
			return a.Tid < b.Tid
		}
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		if a.End != b.End {
			return a.End < b.End
		}
		return a.Name < b.Name
	})
	return ev, dropped
}

// Span records a complete span on the active trace, if one is
// recording. Times are simulated seconds. Safe to call unconditionally
// from hot sim paths: with no active trace it is one atomic load.
func Span(pid, tid int, name, cat string, start, end float64) {
	t := active.Load()
	if t == nil {
		return
	}
	t.record(Event{Name: name, Cat: cat, Phase: "X", Pid: pid, Tid: tid, Start: start, End: end})
}

// Instant records a zero-duration marker on the active trace.
func Instant(pid, tid int, name, cat string, at float64, args [2]Arg) {
	t := active.Load()
	if t == nil {
		return
	}
	t.record(Event{Name: name, Cat: cat, Phase: "i", Pid: pid, Tid: tid, Start: at, End: at, Args: args})
}

// SpanHandle is a pooled in-flight span for callers that bracket a
// region: h := obs.StartSpan(...); ...; h.End(clockNow). The handle
// comes from a sync.Pool, so the begin/end pair allocates nothing, and
// a nil handle's End is a no-op — StartSpan returns nil when no trace
// is recording, so hot paths need no branch of their own.
type SpanHandle struct {
	t     *Trace
	name  string
	cat   string
	pid   int
	tid   int
	start float64
	args  [2]Arg
}

var spanPool = sync.Pool{New: func() any { return new(SpanHandle) }}

// StartSpan begins a pooled span at the given simulated time, or
// returns nil when no trace is recording.
func StartSpan(pid, tid int, name, cat string, start float64) *SpanHandle {
	t := active.Load()
	if t == nil {
		return nil
	}
	h := spanPool.Get().(*SpanHandle)
	h.t = t
	h.name, h.cat = name, cat
	h.pid, h.tid = pid, tid
	h.start = start
	h.args = [2]Arg{}
	return h
}

// SetArg attaches an integer annotation to the span (at most two; later
// calls overwrite the second slot). Nil-safe.
func (h *SpanHandle) SetArg(key string, v int64) {
	if h == nil {
		return
	}
	if h.args[0].Key == "" || h.args[0].Key == key {
		h.args[0] = Arg{Key: key, Value: v}
		return
	}
	h.args[1] = Arg{Key: key, Value: v}
}

// End records the span at the given simulated end time and returns the
// handle to the pool. Nil-safe; the handle must not be used after End.
func (h *SpanHandle) End(end float64) {
	if h == nil {
		return
	}
	h.t.record(Event{Name: h.name, Cat: h.cat, Phase: "X", Pid: h.pid, Tid: h.tid, Start: h.start, End: end, Args: h.args})
	*h = SpanHandle{}
	spanPool.Put(h)
}

// WriteChromeTrace writes the trace in Chrome trace_event JSON array
// format ({"traceEvents": [...]}), with timestamps in microseconds of
// simulated time and a metadata record naming each pid "node <rank>".
// Events are emitted in the deterministic Events() order, so the same
// run produces byte-identical files. The "metadata" object carries
// dropped_events, the number of older events the ring no longer holds.
func (t *Trace) WriteChromeTrace(w io.Writer) error {
	if t == nil {
		return errors.New("obs: WriteChromeTrace on nil trace")
	}
	ev, dropped := t.snapshot()
	var bw bytes.Buffer
	put := func(s string) { bw.WriteString(s) }
	putInt := func(v int64) {
		var buf [20]byte
		bw.Write(strconv.AppendInt(buf[:0], v, 10))
	}
	put(`{"traceEvents":[`)
	first := true
	sep := func() {
		if !first {
			put(",")
		}
		first = false
		put("\n")
	}
	pids := map[int]bool{}
	for i := range ev {
		pids[ev[i].Pid] = true
	}
	ranks := make([]int, 0, len(pids))
	for pid := range pids {
		ranks = append(ranks, pid)
	}
	sort.Ints(ranks)
	for _, pid := range ranks {
		sep()
		put(`{"name":"process_name","ph":"M","pid":`)
		putInt(int64(pid))
		put(`,"tid":0,"args":{"name":"node `)
		putInt(int64(pid))
		put(`"}}`)
	}
	for i := range ev {
		e := &ev[i]
		sep()
		put(`{"name":`)
		put(strconv.Quote(e.Name))
		put(`,"cat":`)
		put(strconv.Quote(e.Cat))
		put(`,"ph":"`)
		put(e.Phase)
		put(`","pid":`)
		putInt(int64(e.Pid))
		put(`,"tid":`)
		putInt(int64(e.Tid))
		put(`,"ts":`)
		putInt(usec(e.Start))
		if e.Phase == "X" {
			put(`,"dur":`)
			putInt(usec(e.End) - usec(e.Start))
		}
		if e.Phase == "i" {
			put(`,"s":"t"`)
		}
		if e.Args[0].Key != "" {
			put(`,"args":{`)
			put(strconv.Quote(e.Args[0].Key))
			put(`:`)
			putInt(e.Args[0].Value)
			if e.Args[1].Key != "" {
				put(`,`)
				put(strconv.Quote(e.Args[1].Key))
				put(`:`)
				putInt(e.Args[1].Value)
			}
			put(`}`)
		}
		put(`}`)
	}
	put("\n]")
	put(`,"metadata":{"dropped_events":`)
	putInt(dropped)
	put("}}\n")
	_, err := w.Write(bw.Bytes())
	return err
}

// usec converts simulated seconds to integer microseconds, the
// trace_event unit.
func usec(sec float64) int64 { return int64(sec * 1e6) }
