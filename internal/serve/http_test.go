package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// postJob submits a spec over HTTP and returns the response.
func postJob(t *testing.T, ts *httptest.Server, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(body))
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
	return resp, data
}

// getJSON GETs a path and decodes the JSON body into out.
func getJSON(t *testing.T, ts *httptest.Server, path string, out any) *http.Response {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
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
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			t.Fatalf("GET %s: decoding %q: %v", path, data, err)
		}
	}
	return resp
}

// TestHTTPLifecycle drives a job end to end through the API: submit,
// poll to completion, list, metrics, trace.
func TestHTTPLifecycle(t *testing.T) {
	m, err := NewManager(Options{Stream: tinyStream()})
	if err != nil {
		t.Fatal(err)
	}
	m.Start()
	defer m.Drain()
	ts := httptest.NewServer(NewHandler(m))
	defer ts.Close()

	resp, data := postJob(t, ts, `{"dataset":"asymmetric","scale":2.5,"views":4,"levels":2,"init_seed":3}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /jobs: %d %s", resp.StatusCode, data)
	}
	var st JobStatus
	if err := json.Unmarshal(data, &st); err != nil {
		t.Fatalf("decoding %q: %v", data, err)
	}
	if st.ID == "" || st.State != StatePending || st.LevelsTotal != 2 {
		t.Fatalf("initial status %+v", st)
	}
	if st.Shape.Workers != 2 {
		t.Fatalf("shape not reported: %+v", st.Shape)
	}

	deadline := time.Now().Add(60 * time.Second)
	var fin JobStatus
	for {
		getJSON(t, ts, "/jobs/"+st.ID, &fin)
		if fin.State.Terminal() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck: %+v", fin)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if fin.State != StateDone || fin.LevelsDone != 2 || fin.Summary == nil {
		t.Fatalf("final status %+v", fin)
	}

	var list []JobStatus
	getJSON(t, ts, "/jobs", &list)
	if len(list) != 1 || list[0].ID != st.ID {
		t.Fatalf("list %+v", list)
	}

	// /metrics serves the PR 4 JSON exporter document.
	prev := obs.SetEnabled(true)
	defer obs.SetEnabled(prev)
	var doc struct {
		SchemaVersion int `json:"schema_version"`
		Metrics       []struct {
			Name  string `json:"name"`
			Value int64  `json:"value"`
		} `json:"metrics"`
	}
	resp2 := getJSON(t, ts, "/metrics", &doc)
	if resp2.StatusCode != http.StatusOK || doc.SchemaVersion != 1 {
		t.Fatalf("metrics: %d, schema %d", resp2.StatusCode, doc.SchemaVersion)
	}
	found := false
	for _, mt := range doc.Metrics {
		if mt.Name == "serve.jobs.submitted" {
			found = true
		}
	}
	if !found {
		t.Fatalf("serve.jobs.submitted missing from metrics: %+v", doc.Metrics)
	}

	// /trace: 404 with no active trace, a Chrome trace doc with one.
	if resp := getJSON(t, ts, "/trace", nil); resp.StatusCode != http.StatusNotFound && obs.ActiveTrace() == nil {
		t.Fatalf("trace without active trace: %d", resp.StatusCode)
	}
	obs.StartTrace()
	defer obs.EndTrace()
	var trace struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if resp := getJSON(t, ts, "/trace", &trace); resp.StatusCode != http.StatusOK {
		t.Fatalf("trace with active trace: %d", resp.StatusCode)
	}
}

// TestHTTPBackpressure: a stopped manager's queue fills, and the
// overflow submit gets 429 + Retry-After — the retriable contract.
func TestHTTPBackpressure(t *testing.T) {
	m, err := NewManager(Options{QueueDepth: 1, Stream: tinyStream()})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewHandler(m))
	defer ts.Close()

	body := `{"dataset":"asymmetric","scale":2.5,"views":4,"levels":1}`
	if resp, data := postJob(t, ts, body); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first POST: %d %s", resp.StatusCode, data)
	}
	resp, data := postJob(t, ts, body)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow POST: %d %s", resp.StatusCode, data)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	var eb errorBody
	if err := json.Unmarshal(data, &eb); err != nil || eb.Error == "" {
		t.Fatalf("429 body %q: %v", data, err)
	}

	// Draining manager → 503.
	m.RequestDrain()
	if resp, _ := postJob(t, ts, body); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining POST: %d", resp.StatusCode)
	}
}

// TestHTTPSubmitBodyLimit: a spec body over maxSpecBytes is refused
// with 413 before anything is admitted — no journal record, no queue
// slot — and the service keeps accepting normal specs afterwards.
func TestHTTPSubmitBodyLimit(t *testing.T) {
	j, err := OpenJournal(filepath.Join(t.TempDir(), "jobs.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	m, err := NewManager(Options{Stream: tinyStream(), Journal: j})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewHandler(m))
	defer ts.Close()

	huge := `{"dataset":"` + strings.Repeat("a", maxSpecBytes) + `"}`
	resp, data := postJob(t, ts, huge)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized POST: %d %.80s", resp.StatusCode, data)
	}
	var eb errorBody
	if err := json.Unmarshal(data, &eb); err != nil || eb.Error == "" {
		t.Fatalf("413 body %q: %v", data, err)
	}
	m.mu.Lock()
	queued := m.queued
	m.mu.Unlock()
	if queued != 0 || len(m.List()) != 0 || j.Size() != 0 {
		t.Fatalf("oversized POST left queued=%d jobs=%d journal_bytes=%d, want all 0", queued, len(m.List()), j.Size())
	}
	if resp, data := postJob(t, ts, `{"dataset":"asymmetric","scale":2.5,"views":4,"levels":1}`); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("normal POST after oversized one: %d %s", resp.StatusCode, data)
	}
}

// TestHTTPErrors: the 400/404/409 mappings.
func TestHTTPErrors(t *testing.T) {
	j, err := OpenJournal(filepath.Join(t.TempDir(), "jobs.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	m, err := NewManager(Options{Stream: tinyStream(), Journal: j})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewHandler(m))
	defer ts.Close()

	// Every refused submit is a 400 that journals nothing and leaves
	// the queue empty.
	for _, tc := range []struct{ name, body string }{
		{"bad JSON", `{not json`},
		{"unknown dataset", `{"dataset":"nope"}`},
		{"unknown field", `{"dataset":"asymmetric","bogus":1}`},
		// A one-view cycle job has no odd/even halves: refused at
		// admission, not failed on the executor after being journaled.
		{"one-view cycle job", `{"type":"cycle","dataset":"asymmetric","scale":2.5,"views":1}`},
		// Data after the spec is refused like an unknown field, not
		// dropped behind one admitted job.
		{"second value", `{"dataset":"sindbis"}{"dataset":"reo"}`},
		{"trailing garbage", `{"dataset":"sindbis"} garbage`},
		{"stray bracket", `{"dataset":"sindbis"}]`},
	} {
		if resp, data := postJob(t, ts, tc.body); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: %d %s, want 400", tc.name, resp.StatusCode, data)
		}
		m.mu.Lock()
		queued := m.queued
		m.mu.Unlock()
		if queued != 0 || len(m.List()) != 0 || j.Size() != 0 {
			t.Fatalf("%s: refused POST left queued=%d jobs=%d journal_bytes=%d, want all 0", tc.name, queued, len(m.List()), j.Size())
		}
	}
	if resp := getJSON(t, ts, "/jobs/job-999999", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET unknown job: %d", resp.StatusCode)
	}

	// Cancel flow: DELETE a pending job, then DELETE again → 409. The
	// spec's trailing whitespace is not data after it.
	_, data := postJob(t, ts, "{\"dataset\":\"asymmetric\",\"scale\":2.5,\"views\":4,\"levels\":1}\n \t\n")
	var st JobStatus
	if err := json.Unmarshal(data, &st); err != nil {
		t.Fatal(err)
	}
	del := func(id string) *http.Response {
		req, err := http.NewRequest(http.MethodDelete, ts.URL+"/jobs/"+id, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			t.Fatal(err)
		}
		if err := resp.Body.Close(); err != nil {
			t.Fatal(err)
		}
		return resp
	}
	if resp := del(st.ID); resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE pending job: %d", resp.StatusCode)
	}
	if resp := del(st.ID); resp.StatusCode != http.StatusConflict {
		t.Fatalf("second DELETE: %d", resp.StatusCode)
	}
	if resp := del("job-999999"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("DELETE unknown job: %d", resp.StatusCode)
	}
}

// TestHTTPResponsesAreJSON: every error body is the JSON envelope, so
// clients can always decode {"error": ...}.
func TestHTTPResponsesAreJSON(t *testing.T) {
	m, err := NewManager(Options{QueueDepth: 1, Stream: tinyStream()})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewHandler(m))
	defer ts.Close()
	for _, tc := range []struct{ method, path, body string }{
		{http.MethodPost, "/jobs", `{"dataset":"nope"}`},
		{http.MethodGet, "/jobs/job-404404", ""},
		{http.MethodDelete, "/jobs/job-404404", ""},
	} {
		req, err := http.NewRequest(tc.method, ts.URL+tc.path, bytes.NewReader([]byte(tc.body)))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
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
		var eb errorBody
		if err := json.Unmarshal(data, &eb); err != nil || eb.Error == "" {
			t.Errorf("%s %s: body %q is not the error envelope (%v)", tc.method, tc.path, data, err)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s %s: content type %q", tc.method, tc.path, ct)
		}
	}
}
