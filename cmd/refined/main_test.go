package main

import (
	"bufio"
	"context"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
)

// TestReadDeadline: a client that stalls mid-body on POST /jobs is cut
// off at the read deadline with an error response and leaves no trace
// in the journal, while a GET /events stream — idle for longer than the
// same deadline — stays connected and still delivers the next event.
func TestReadDeadline(t *testing.T) {
	const readTimeout = 50 * time.Millisecond

	obs.StartEvents(64)
	defer obs.StopEvents()
	journalPath := filepath.Join(t.TempDir(), "jobs.jsonl")
	j, err := serve.OpenJournal(journalPath)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	m, err := serve.NewManager(serve.Options{Journal: j})
	if err != nil {
		t.Fatal(err)
	}
	m.Start()
	defer m.Drain()
	ts := httptest.NewUnstartedServer(nil)
	ts.Config = newServer(serve.NewHandler(m), readTimeout)
	ts.Start()
	defer ts.Close()

	// The context only keeps a broken stream from hanging the test.
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	stream, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Body.Close()

	// The stalled submit: headers and the first body byte arrive, the
	// other 99 promised bytes never do.
	conn, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("POST /jobs HTTP/1.1\r\nHost: refined\r\nContent-Length: 100\r\n\r\n{")); err != nil {
		t.Fatal(err)
	}
	if err := conn.SetReadDeadline(time.Now().Add(100 * readTimeout)); err != nil {
		t.Fatal(err)
	}
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatalf("stalled POST /jobs got no response: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestTimeout {
		t.Errorf("stalled POST /jobs: status %d, want %d", resp.StatusCode, http.StatusRequestTimeout)
	}
	if jobs := m.List(); len(jobs) != 0 {
		t.Errorf("stalled submit admitted %d job(s)", len(jobs))
	}
	if fi, err := os.Stat(journalPath); err != nil {
		t.Error(err)
	} else if fi.Size() != 0 {
		t.Errorf("stalled submit wrote %d bytes to the journal", fi.Size())
	}

	// The stalled request took a full deadline to fail, so the stream
	// has by now been idle for longer than that. A prompt submit must
	// still show up on it.
	accepted, err := http.Post(ts.URL+"/jobs", "application/json",
		strings.NewReader(`{"dataset":"asymmetric","scale":2.5,"views":4,"levels":1}`))
	if err != nil {
		t.Fatal(err)
	}
	accepted.Body.Close()
	if accepted.StatusCode != http.StatusAccepted {
		t.Fatalf("prompt POST /jobs: status %d", accepted.StatusCode)
	}
	sc := bufio.NewScanner(stream.Body)
	for sc.Scan() {
		if sc.Text() == "event: admit" {
			return
		}
	}
	t.Fatalf("event stream ended before the admit event (read error: %v)", sc.Err())
}
