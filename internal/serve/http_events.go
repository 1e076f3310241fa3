package serve

import (
	"bytes"
	"net/http"
	"strconv"

	"repro/internal/obs"
)

// Live event streaming, all stdlib:
//
//	GET /events           — firehose of every event the daemon emits
//	GET /jobs/{id}/events — one job's events; the stream ends on its
//	                        own once the job is terminal and drained
//
// The default wire format is Server-Sent Events: one frame per event,
// `id:` carrying the record's sequence number, `event:` its kind and
// `data:` the same deterministic JSON object WriteJSONL exports. A
// client that reconnects with the standard Last-Event-ID header (or
// ?since=<seq>) resumes exactly after the last frame it saw; if the
// ring buffer overwrote records in the gap, the stream opens with an
// `event: gap` frame carrying the dropped count so the client knows
// the tail is incomplete rather than silently missing.
//
// ?poll=1 switches to a long-poll JSON fallback for clients without
// SSE: the request blocks until an event past the cursor exists (or
// the client goes away) and returns {"events":[...],"dropped":N,
// "next":M} where M is the cursor for the follow-up request. Neither
// mode reads the wall clock — blocking is on the event log's notify
// channel and the request context only, which keeps the handlers
// inside the serve package's simulated-clock contract.

// eventCursor extracts the resume cursor: Last-Event-ID (the SSE
// reconnect convention) wins over an explicit ?since= parameter. The
// log restarts at seq 1 with the process, so a cursor past its head
// was issued by a previous daemon: it restarts at 0 and the stream
// replays this process's log rather than waiting for a seq that
// already passed.
func eventCursor(r *http.Request, l *obs.EventLog) uint64 {
	n, err := strconv.ParseUint(r.Header.Get("Last-Event-ID"), 10, 64)
	if err != nil {
		if n, err = strconv.ParseUint(r.URL.Query().Get("since"), 10, 64); err != nil {
			n = 0
		}
	}
	if n > l.LastSeq() {
		return 0
	}
	return n
}

// filterJob keeps the records for one job, in place. The cursor must
// still advance over what was filtered out, so callers track the last
// sequence number of the unfiltered batch.
func filterJob(evs []obs.EventRecord, jobID string) []obs.EventRecord {
	if jobID == "" {
		return evs
	}
	kept := evs[:0]
	for _, ev := range evs {
		if ev.Job == jobID {
			kept = append(kept, ev)
		}
	}
	return kept
}

// handleEvents serves both event routes; jobID is empty for the
// firehose.
func handleEvents(m *Manager, w http.ResponseWriter, r *http.Request, jobID string) {
	l := obs.ActiveEvents()
	if l == nil {
		writeJSON(m, w, http.StatusNotFound, errorBody{Error: "serve: no active event log; start the daemon with events enabled"})
		return
	}
	if jobID != "" {
		if _, err := m.Get(jobID); err != nil {
			writeJSON(m, w, http.StatusNotFound, errorBody{Error: err.Error()})
			return
		}
	}
	if r.URL.Query().Get("poll") == "1" {
		handleEventsPoll(m, l, w, r, jobID)
		return
	}
	handleEventsSSE(m, l, w, r, jobID)
}

// pollBody is the long-poll JSON envelope.
type pollBody struct {
	Events  []obs.EventRecord `json:"events"`
	Dropped uint64            `json:"dropped"`
	Next    uint64            `json:"next"`
}

func handleEventsPoll(m *Manager, l *obs.EventLog, w http.ResponseWriter, r *http.Request, jobID string) {
	after := eventCursor(r, l)
	for {
		evs, dropped := l.Since(after)
		if len(evs) > 0 || dropped > 0 {
			next := after + dropped
			if len(evs) > 0 {
				next = evs[len(evs)-1].Seq
			}
			evs = filterJob(evs, jobID)
			w.Header().Set("Cache-Control", "no-store")
			writeJSON(m, w, http.StatusOK, pollBody{Events: evs, Dropped: dropped, Next: next})
			return
		}
		select {
		case <-l.Wait(after):
		case <-r.Context().Done():
			w.Header().Set("Cache-Control", "no-store")
			writeJSON(m, w, http.StatusOK, pollBody{Events: []obs.EventRecord{}, Next: after})
			return
		}
	}
}

func handleEventsSSE(m *Manager, l *obs.EventLog, w http.ResponseWriter, r *http.Request, jobID string) {
	fl, ok := w.(http.Flusher)
	if !ok {
		writeJSON(m, w, http.StatusInternalServerError, errorBody{Error: "serve: streaming unsupported by connection"})
		return
	}
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-store")
	h.Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	fl.Flush()

	after := eventCursor(r, l)
	var buf bytes.Buffer
	for {
		evs, dropped := l.Since(after)
		if len(evs) > 0 {
			after = evs[len(evs)-1].Seq
		} else {
			after += dropped
		}
		buf.Reset()
		if dropped > 0 {
			// The ring overwrote records between the cursor and the
			// oldest retained event; tell the client instead of
			// silently skipping.
			buf.WriteString("event: gap\ndata: {\"dropped\":")
			buf.WriteString(strconv.FormatUint(dropped, 10))
			buf.WriteString("}\n\n")
		}
		for _, ev := range filterJob(evs, jobID) {
			buf.WriteString("id: ")
			buf.WriteString(strconv.FormatUint(ev.Seq, 10))
			buf.WriteString("\nevent: ")
			buf.WriteString(ev.Kind)
			buf.WriteString("\ndata: ")
			buf.Write(ev.AppendJSON(nil))
			buf.WriteString("\n\n")
		}
		if buf.Len() > 0 {
			if _, err := w.Write(buf.Bytes()); err != nil {
				return
			}
			fl.Flush()
		}
		if jobID != "" {
			// The terminal event is emitted under the same lock that
			// flips the job's state, so once Get reports terminal a
			// final drain is guaranteed to include it.
			if st, err := m.Get(jobID); err == nil && st.State.Terminal() {
				if evs, _ := l.Since(after); len(filterJob(evs, jobID)) == 0 {
					return
				}
				continue
			}
		}
		select {
		case <-l.Wait(after):
		case <-r.Context().Done():
			return
		}
	}
}
