package serve

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// withEvents installs a fresh event log for one test and tears it down.
func withEvents(t *testing.T, capacity int) *obs.EventLog {
	t.Helper()
	if obs.ActiveEvents() != nil {
		t.Fatal("event log already active at test start")
	}
	l := obs.StartEvents(capacity)
	t.Cleanup(func() { obs.StopEvents() })
	return l
}

// jobKinds extracts the event-kind sequence for one job.
func jobKinds(evs []obs.EventRecord, id string) []string {
	var kinds []string
	for _, ev := range evs {
		if ev.Job == id {
			kinds = append(kinds, ev.Kind)
		}
	}
	return kinds
}

// TestManagerEventLifecycle: one journaled job emits the full edge
// sequence — admit, dequeue, per-level start/end/checkpoint, terminal —
// and the gauges land on their resting values.
func TestManagerEventLifecycle(t *testing.T) {
	l := withEvents(t, 1024)
	prev := obs.SetEnabled(true)
	defer obs.SetEnabled(prev)
	defer obs.ResetAll()

	j, err := OpenJournal(filepath.Join(t.TempDir(), "jobs.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := j.Close(); err != nil {
			t.Error(err)
		}
	}()
	m, err := NewManager(Options{Stream: tinyStream(), Journal: j})
	if err != nil {
		t.Fatal(err)
	}
	m.Start()
	st, err := m.Submit(tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, st.ID, StateDone)
	m.Drain()

	evs, dropped := l.Since(0)
	if dropped != 0 {
		t.Fatalf("ring overflowed: %d dropped", dropped)
	}
	want := []string{
		evAdmit, evDequeue,
		evLevelStart, evLevelEnd, evCheckpoint,
		evLevelStart, evLevelEnd, evCheckpoint,
		string(StateDone),
	}
	if got := jobKinds(evs, st.ID); !reflect.DeepEqual(got, want) {
		t.Fatalf("event kinds %v, want %v", got, want)
	}
	// Sequence numbers are contiguous and timestamps never go backwards.
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq != evs[i-1].Seq+1 {
			t.Fatalf("seq gap at %d: %+v", i, evs[i])
		}
		if evs[i].TS < evs[i-1].TS {
			t.Fatalf("logical time went backwards: %+v after %+v", evs[i], evs[i-1])
		}
	}
	// level_end carries the per-level work counters.
	for _, ev := range evs {
		if ev.Kind != evLevelEnd {
			continue
		}
		if ev.Fields[0].Key != "evals" || ev.Fields[0].Value <= 0 {
			t.Fatalf("level_end without evals: %+v", ev)
		}
	}
	vals := obs.Values()
	if vals["serve.queue.depth.now"] != 0 || vals["serve.jobs.running.now"] != 0 {
		t.Fatalf("occupancy gauges not at rest: %v", vals)
	}
	if got, want := vals["serve.journal.bytes"], j.Size(); got != want || want == 0 {
		t.Fatalf("journal bytes gauge %d, journal size %d", got, want)
	}
	if vals["serve.latency.level_ticks.count"] != 2 {
		t.Fatalf("level latency histogram count: %v", vals["serve.latency.level_ticks.count"])
	}
}

// sseFrame is one parsed Server-Sent Events frame.
type sseFrame struct {
	ID    uint64
	Event string
	Data  string
}

// readFrames reads up to max SSE frames (0 = until EOF) from r.
func readFrames(t *testing.T, r *bufio.Reader, max int) []sseFrame {
	t.Helper()
	var (
		frames []sseFrame
		cur    sseFrame
		dirty  bool
	)
	for max == 0 || len(frames) < max {
		line, err := r.ReadString('\n')
		if err == io.EOF && line == "" {
			break
		}
		if err != nil && err != io.EOF {
			t.Fatalf("reading SSE stream: %v", err)
		}
		line = strings.TrimRight(line, "\n")
		switch {
		case line == "":
			if dirty {
				frames = append(frames, cur)
				cur, dirty = sseFrame{}, false
			}
		case strings.HasPrefix(line, "id: "):
			id, err := strconv.ParseUint(line[len("id: "):], 10, 64)
			if err != nil {
				t.Fatalf("bad SSE id line %q: %v", line, err)
			}
			cur.ID, dirty = id, true
		case strings.HasPrefix(line, "event: "):
			cur.Event, dirty = line[len("event: "):], true
		case strings.HasPrefix(line, "data: "):
			cur.Data, dirty = line[len("data: "):], true
		default:
			t.Fatalf("unexpected SSE line %q", line)
		}
	}
	return frames
}

// TestSSEResumeNoGaps is the satellite-3 contract: follow a job's SSE
// stream, kill the connection mid-stream, reconnect with the standard
// Last-Event-ID header, and the union of both reads covers every event
// exactly once — cross-checked against the journal's level records.
func TestSSEResumeNoGaps(t *testing.T) {
	withEvents(t, 1024)
	path := filepath.Join(t.TempDir(), "jobs.jsonl")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := j.Close(); err != nil {
			t.Error(err)
		}
	}()
	m, err := NewManager(Options{Stream: tinyStream(), Journal: j})
	if err != nil {
		t.Fatal(err)
	}
	m.Start()
	defer m.Drain()
	ts := httptest.NewServer(NewHandler(m))
	defer ts.Close()

	st, err := m.Submit(tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, st.ID, StateDone)

	stream := func(lastID uint64, max int) []sseFrame {
		req, err := http.NewRequest(http.MethodGet, ts.URL+"/jobs/"+st.ID+"/events", nil)
		if err != nil {
			t.Fatal(err)
		}
		if lastID > 0 {
			req.Header.Set("Last-Event-ID", strconv.FormatUint(lastID, 10))
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer func() {
			if err := resp.Body.Close(); err != nil {
				t.Error(err)
			}
		}()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("SSE status %d", resp.StatusCode)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
			t.Fatalf("SSE content type %q", ct)
		}
		return readFrames(t, bufio.NewReader(resp.Body), max)
	}

	// First connection: read three frames, then kill it mid-stream.
	head := stream(0, 3)
	if len(head) != 3 {
		t.Fatalf("first read got %d frames", len(head))
	}
	// Reconnect where the dead connection left off; the stream ends on
	// its own once the terminal event is drained.
	tail := stream(head[len(head)-1].ID, 0)
	if len(tail) == 0 {
		t.Fatal("resumed stream was empty")
	}

	frames := append(head, tail...)
	seen := map[uint64]bool{}
	var levelEnds []int
	for _, f := range frames {
		if f.Event == "gap" {
			t.Fatalf("gap frame on an un-overflowed ring: %+v", f)
		}
		if seen[f.ID] {
			t.Fatalf("duplicate seq %d after resume", f.ID)
		}
		seen[f.ID] = true
		var rec struct {
			Seq   uint64 `json:"seq"`
			Level int    `json:"level"`
			Kind  string `json:"kind"`
		}
		if err := json.Unmarshal([]byte(f.Data), &rec); err != nil {
			t.Fatalf("frame data %q: %v", f.Data, err)
		}
		if rec.Seq != f.ID || rec.Kind != f.Event {
			t.Fatalf("frame metadata disagrees with payload: %+v vs %+v", f, rec)
		}
		if f.Event == evLevelEnd {
			levelEnds = append(levelEnds, rec.Level)
		}
	}
	for i := 1; i < len(frames); i++ {
		if frames[i].ID != frames[i-1].ID+1 {
			t.Fatalf("seq gap across resume: %d after %d", frames[i].ID, frames[i-1].ID)
		}
	}
	if frames[len(frames)-1].Event != string(StateDone) {
		t.Fatalf("stream did not end at the terminal event: %+v", frames[len(frames)-1])
	}

	// The level_end events must line up one-to-one with the journal's
	// level records.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var journalLevels []int
	for _, line := range bytes.Split(data, []byte("\n")) {
		if len(line) == 0 {
			continue
		}
		var rec struct {
			Kind  string `json:"kind"`
			Level int    `json:"level"`
		}
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatal(err)
		}
		if rec.Kind == "level" {
			journalLevels = append(journalLevels, rec.Level)
		}
	}
	if !reflect.DeepEqual(levelEnds, journalLevels) {
		t.Fatalf("level_end events %v vs journal level records %v", levelEnds, journalLevels)
	}
}

// TestEventsLongPoll: the ?poll=1 fallback returns the same records as
// JSON and a cursor that picks up exactly where the response ended.
func TestEventsLongPoll(t *testing.T) {
	l := withEvents(t, 1024)
	m, err := NewManager(Options{Stream: tinyStream()})
	if err != nil {
		t.Fatal(err)
	}
	m.Start()
	defer m.Drain()
	ts := httptest.NewServer(NewHandler(m))
	defer ts.Close()

	st, err := m.Submit(tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, st.ID, StateDone)

	var body pollBody
	resp := getJSON(t, ts, "/jobs/"+st.ID+"/events?poll=1", &body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("poll status %d", resp.StatusCode)
	}
	if cc := resp.Header.Get("Cache-Control"); cc != "no-store" {
		t.Fatalf("poll Cache-Control %q", cc)
	}
	if body.Dropped != 0 || len(body.Events) == 0 {
		t.Fatalf("poll body: %d events, %d dropped", len(body.Events), body.Dropped)
	}
	if body.Next != l.LastSeq() {
		t.Fatalf("poll cursor %d, log head %d", body.Next, l.LastSeq())
	}
	if got := body.Events[len(body.Events)-1].Kind; got != string(StateDone) {
		t.Fatalf("last polled event %q", got)
	}
	// A follow-up from the returned cursor against a finished job has
	// nothing new — probe via since= on the firehose's own head.
	var again pollBody
	getJSON(t, ts, "/events?poll=1&since="+strconv.FormatUint(body.Next-1, 10), &again)
	if len(again.Events) != 1 || again.Events[0].Seq != body.Next {
		t.Fatalf("cursor re-read: %+v", again.Events)
	}

	// Unknown job and inactive log both map to 404.
	if resp := getJSON(t, ts, "/jobs/job-999999/events", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job events: %d", resp.StatusCode)
	}
	obs.StopEvents()
	defer obs.StartEvents(16) // keep the cleanup's Stop balanced
	if resp := getJSON(t, ts, "/events", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("events without active log: %d", resp.StatusCode)
	}
}

// TestEventsCursorFromPreviousProcess: the event log restarts at seq 1
// with the daemon, so a client reconnecting after a restart carries a
// Last-Event-ID past this process's head. Both the long poll and the
// per-job SSE stream replay this process's log from seq 1 instead of
// blocking (poll) or ending empty (SSE, which the client would then
// reconnect to forever).
// FuzzEventCursor: for any Last-Event-ID header, ?since= value and log
// length, eventCursor never panics and never returns a cursor past the
// log's head; a header that parses to n ≤ LastSeq() wins, and without
// a parseable header the same holds for ?since=.
func FuzzEventCursor(f *testing.F) {
	f.Add("", "", uint8(0))
	f.Add("3", "", uint8(5))
	f.Add("", "4", uint8(5))
	f.Add("9", "2", uint8(5))
	f.Add("18446744073709551615", "1", uint8(2))
	f.Add("18446744073709551616", "-1", uint8(2))
	f.Add(" 2", "0x2", uint8(3))
	f.Fuzz(func(t *testing.T, header, since string, emitted uint8) {
		l := obs.NewEventLog(16)
		for i := 0; i < int(emitted); i++ {
			l.Emit("tick", "", 0, 0, [obs.EventFieldsMax]obs.EventField{})
		}
		r := httptest.NewRequest(http.MethodGet, "/events", nil)
		r.URL.RawQuery = url.Values{"since": {since}}.Encode()
		r.Header.Set("Last-Event-ID", header)
		got, head := eventCursor(r, l), l.LastSeq()
		if got > head {
			t.Fatalf("cursor %d past the log head %d (header %q, since %q)", got, head, header, since)
		}
		if n, err := strconv.ParseUint(header, 10, 64); err == nil {
			if n <= head && got != n {
				t.Fatalf("header %q: cursor %d, want %d", header, got, n)
			}
		} else if n, err := strconv.ParseUint(since, 10, 64); err == nil && n <= head && got != n {
			t.Fatalf("since %q: cursor %d, want %d", since, got, n)
		}
	})
}

func TestEventsCursorFromPreviousProcess(t *testing.T) {
	l := withEvents(t, 1024)
	m, err := NewManager(Options{Stream: tinyStream()})
	if err != nil {
		t.Fatal(err)
	}
	m.Start()
	defer m.Drain()
	ts := httptest.NewServer(NewHandler(m))
	defer ts.Close()

	st, err := m.Submit(tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, st.ID, StateDone)
	stale := strconv.FormatUint(l.LastSeq()+1000, 10)
	client := &http.Client{Timeout: time.Second}
	get := func(path string) []byte {
		t.Helper()
		req, err := http.NewRequest(http.MethodGet, ts.URL+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Last-Event-ID", stale)
		resp, err := client.Do(req)
		if err != nil {
			t.Fatalf("GET %s with Last-Event-ID %s: %v", path, stale, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s with Last-Event-ID %s: %v", path, stale, err)
		}
		return body
	}

	var poll pollBody
	if err := json.Unmarshal(get("/jobs/"+st.ID+"/events?poll=1"), &poll); err != nil {
		t.Fatal(err)
	}
	if n := len(poll.Events); n == 0 || poll.Events[0].Kind != evAdmit || poll.Events[n-1].Kind != string(StateDone) {
		t.Fatalf("poll from a stale cursor: %d events %v, want admit … done", n, jobKinds(poll.Events, st.ID))
	}
	if poll.Next != l.LastSeq() {
		t.Fatalf("poll cursor %d, log head %d", poll.Next, l.LastSeq())
	}

	frames := readFrames(t, bufio.NewReader(bytes.NewReader(get("/jobs/"+st.ID+"/events"))), 0)
	if n := len(frames); n != len(poll.Events) || frames[0].Event != evAdmit || frames[n-1].Event != string(StateDone) {
		t.Fatalf("SSE from a stale cursor: %d frames, want the %d polled events admit … done", n, len(poll.Events))
	}
}

// parseProm is the small exposition parser backing the prom-format
// tests and the CI smoke: it checks every line is a well-formed TYPE
// comment or sample, and returns samples keyed by name+labels.
func parseProm(t *testing.T, text string) (types map[string]string, samples map[string]int64) {
	t.Helper()
	types = map[string]string{}
	samples = map[string]int64{}
	for i, line := range strings.Split(text, "\n") {
		if line == "" {
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			parts := strings.Fields(rest)
			if len(parts) != 2 {
				t.Fatalf("line %d: malformed TYPE comment %q", i+1, line)
			}
			switch parts[1] {
			case "counter", "gauge", "histogram":
			default:
				t.Fatalf("line %d: unknown metric type %q", i+1, parts[1])
			}
			types[parts[0]] = parts[1]
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("line %d: malformed sample %q", i+1, line)
		}
		key, val := line[:sp], line[sp+1:]
		n, err := strconv.ParseInt(val, 10, 64)
		if err != nil {
			t.Fatalf("line %d: non-integer sample value %q", i+1, line)
		}
		name := key
		if b := strings.IndexByte(key, '{'); b >= 0 {
			name = key[:b]
		}
		for _, c := range []byte(name) {
			switch {
			case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '_', c == ':':
			default:
				t.Fatalf("line %d: invalid metric name byte %q in %q", i+1, c, name)
			}
		}
		samples[key] = n
	}
	return types, samples
}

// TestHTTPMetricsProm: ?format=prom serves a valid text exposition
// with the right headers, and the serve histograms obey the cumulative
// bucket contract.
func TestHTTPMetricsProm(t *testing.T) {
	prev := obs.SetEnabled(true)
	defer obs.SetEnabled(prev)
	defer obs.ResetAll()

	m, err := NewManager(Options{Stream: tinyStream()})
	if err != nil {
		t.Fatal(err)
	}
	m.Start()
	defer m.Drain()
	ts := httptest.NewServer(NewHandler(m))
	defer ts.Close()
	st, err := m.Submit(tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, st.ID, StateDone)

	resp, err := http.Get(ts.URL + "/metrics?format=prom")
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if err := resp.Body.Close(); err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Fatalf("prom Content-Type %q", ct)
	}
	if cc := resp.Header.Get("Cache-Control"); cc != "no-store" {
		t.Fatalf("prom Cache-Control %q", cc)
	}
	types, samples := parseProm(t, string(data))
	if types["serve_jobs_done"] != "counter" || samples["serve_jobs_done"] < 1 {
		t.Fatalf("serve_jobs_done: type %q value %d", types["serve_jobs_done"], samples["serve_jobs_done"])
	}
	if typ, ok := types["serve_journal_bytes"]; !ok || typ != "gauge" {
		t.Fatalf("serve_journal_bytes type %q", typ)
	}
	if types["serve_latency_level_ticks"] != "histogram" {
		t.Fatalf("level latency histogram missing: %v", types)
	}
	// Cumulative buckets: monotone non-decreasing, +Inf equals _count.
	var prevCum int64 = -1
	count := samples["serve_latency_level_ticks_count"]
	if count < 2 {
		t.Fatalf("level histogram count %d", count)
	}
	for k := 0; ; k++ {
		le := "0"
		if k > 0 {
			le = strconv.FormatInt(int64(1)<<k-1, 10)
		}
		cum, ok := samples[`serve_latency_level_ticks_bucket{le="`+le+`"}`]
		if !ok {
			break
		}
		if cum < prevCum {
			t.Fatalf("bucket le=%s not cumulative: %d after %d", le, cum, prevCum)
		}
		prevCum = cum
	}
	if inf := samples[`serve_latency_level_ticks_bucket{le="+Inf"}`]; inf != count {
		t.Fatalf("+Inf bucket %d != count %d", inf, count)
	}

	// The JSON view now carries explicit cache headers too.
	resp2, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := io.Copy(io.Discard, resp2.Body); err != nil {
		t.Fatal(err)
	}
	if err := resp2.Body.Close(); err != nil {
		t.Fatal(err)
	}
	if ct, cc := resp2.Header.Get("Content-Type"), resp2.Header.Get("Cache-Control"); ct != "application/json" || cc != "no-store" {
		t.Fatalf("JSON metrics headers: %q / %q", ct, cc)
	}
}

// TestManagerObsEquivalence is the acceptance gate: with counters,
// tracing and the event log all recording, a job's results, summary
// and journal bytes are bit-identical to a fully-uninstrumented run.
func TestManagerObsEquivalence(t *testing.T) {
	run := func(instrument bool) ([]core.Result, *Summary, []byte) {
		if instrument {
			prev := obs.SetEnabled(true)
			defer obs.SetEnabled(prev)
			defer obs.ResetAll()
			obs.StartTrace()
			defer obs.EndTrace()
			obs.StartEvents(4096)
			defer obs.StopEvents()
		}
		path := filepath.Join(t.TempDir(), "jobs.jsonl")
		j, err := OpenJournal(path)
		if err != nil {
			t.Fatal(err)
		}
		m, err := NewManager(Options{Stream: tinyStream(), Journal: j})
		if err != nil {
			t.Fatal(err)
		}
		m.Start()
		st, err := m.Submit(tinySpec())
		if err != nil {
			t.Fatal(err)
		}
		fin := waitState(t, m, st.ID, StateDone)
		res, err := m.Results(st.ID)
		if err != nil {
			t.Fatal(err)
		}
		m.Drain()
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return res, fin.Summary, data
	}

	onRes, onSum, onJournal := run(true)
	offRes, offSum, offJournal := run(false)
	if !reflect.DeepEqual(onRes, offRes) {
		t.Fatal("results differ with instrumentation on")
	}
	if !reflect.DeepEqual(onSum, offSum) {
		t.Fatalf("summaries differ: %+v vs %+v", onSum, offSum)
	}
	if !bytes.Equal(onJournal, offJournal) {
		t.Fatalf("journal bytes differ: %d vs %d", len(onJournal), len(offJournal))
	}
}

// jobStreamsHash runs one job to done on the default logical clock with
// events on and hashes everything the executor wrote: the journal bytes
// and the full event JSONL. The test runs inside a temp dir with a
// relative journal path so the journaled map_path is the artifact's
// base name, not a machine-dependent temp path.
func jobStreamsHash(t *testing.T, spec JobSpec) string {
	t.Helper()
	l := withEvents(t, 4096)
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := os.Chdir(wd); err != nil {
			t.Error(err)
		}
	})
	j, err := OpenJournal("jobs.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewManager(Options{Stream: tinyStream(), Journal: j})
	if err != nil {
		t.Fatal(err)
	}
	m.Start()
	st, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, st.ID, StateDone)
	m.Drain()
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	journal, err := os.ReadFile("jobs.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	h.Write(journal)
	h.Write([]byte{0})
	if err := l.WriteJSONL(h); err != nil {
		t.Fatal(err)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestJobsBitIdenticalToParent pins every byte an executor writes — the
// journal and the event stream of one refine and one cycle job — so an
// executor refactor that means to change nothing can show it. The
// cycle hash was last re-derived on b2ca433 plus the half-spectrum
// reference, when the FSC moved to summing the half spectrum with mate
// weights: two journaled resolution_a values and one mean_cc move by
// ≤ 2.2e-16 relative (and the journal_bytes event fields by their
// printed length), while every map digest, count, orientation, centre
// and distance is the parent's; it was e75996e9…670a before. It was
// re-derived on 2a6c23d plus the Friedel-half insertion, when each view's half disc went in once and Finish folded
// the conjugate mates: the journaled map digests change, the maps move
// by at most 4.4e-14 (peak 2.17), and FSC values, distances, centres
// and shifts move within 1.4e-11 relative, while every count and
// orientation is the parent's; it was 1dd0cc20…39fd before. It was
// re-derived on 4dd756f, when Finish moved to the
// Hermitian half spectrum and the FSC to real-input transforms: the
// journaled map digests change, and FSC values, distances and centres
// move within 1e-9 relative, while every count and orientation is the
// parent's; it was 703d5ecc…8309 before. It was re-derived on aa55a71
// with DefaultShards = 1, when reconstruction moved to one accumulator
// summing every voxel in view order, which moves the maps' last bits
// and so their journaled digests; it was 43015732…b093 before. Both hashes were re-derived on
// parent 6bc0b2e, when centre distances moved to the cross-spectrum and
// separable phase-ramp tables: the journaled centres, distances and FSC
// crossings change in their last digits, while every journaled count
// and orientation is the parent's. Before that they were 61df1db9…2605
// and de060cee…c58d, from the descent's pattern move (derived on
// c861f40), and before that e5c7fafe…3483 and fc38f086…737a, recorded
// at 8127939.
func TestJobsBitIdenticalToParent(t *testing.T) {
	for _, c := range []struct {
		name   string
		spec   JobSpec
		golden string
	}{
		{"refine", tinySpec(), "198fa774cf62db0843045f9d7f8e45a734145f9abd617209f629adb22bd1935e"},
		{"cycle", tinyCycleSpec(), "42eebc10da4ae75312c73aede03a343c4fc4b15b55bab7ae5e33be4e723f2d0f"},
	} {
		t.Run(c.name, func(t *testing.T) {
			if got := jobStreamsHash(t, c.spec); got != c.golden {
				t.Errorf("journal+event hash %s, want %s", got, c.golden)
			}
		})
	}
}
