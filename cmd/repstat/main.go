// Command repstat is the terminal-side view of a running refined
// daemon: a point-in-time status snapshot, a refreshing watch mode,
// and a live event tail.
//
//	repstat                          one status snapshot, then exit
//	repstat -watch                   refresh the snapshot every -interval
//	repstat -follow job-000001       tail the job's event stream (SSE)
//	repstat -follow job-000001 -poll same, via the long-poll fallback
//
// The snapshot renders the daemon's SLO gauges (queue depth, running
// jobs, journal size), latency quantiles derived client-side from the
// exported histogram buckets with the same estimator the server uses
// (obs.QuantileFromBuckets), and a progress bar per job. Follow mode
// prints one JSON object per line — exactly the event records' JSONL
// shape, so a captured tail is a valid event journal — and reconnects
// with Last-Event-ID after a dropped connection, so a daemon restart
// mid-tail costs nothing but a retry. Cycle-job lifecycle events
// (cycle_start, fsc, cycle_end) are additionally narrated in plain
// language on stderr, so a human watching a multi-cycle run sees its
// convergence without stdout losing its journal shape.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "repstat:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		addr     = flag.String("addr", "127.0.0.1:8080", "refined daemon address")
		watch    = flag.Bool("watch", false, "refresh the status view every -interval until interrupted")
		interval = flag.Duration("interval", time.Second, "refresh (and reconnect) interval")
		follow   = flag.String("follow", "", "tail this job's event stream instead of showing status")
		poll     = flag.Bool("poll", false, "with -follow: use the long-poll fallback instead of SSE")
	)
	flag.Parse()
	c := &client{base: "http://" + *addr}
	if *follow != "" {
		if *poll {
			return c.followPoll(*follow)
		}
		return c.followSSE(*follow, *interval)
	}
	if !*watch {
		s, err := c.sample()
		if err != nil {
			return err
		}
		fmt.Print(renderSnapshot(*addr, s, nil))
		return nil
	}
	var prev *sample
	for {
		s, err := c.sample()
		if err != nil {
			return err
		}
		// Clear, home, then draw — one write so the repaint doesn't flicker.
		fmt.Print("\x1b[2J\x1b[H" + renderSnapshot(*addr, s, prev))
		prev = s
		time.Sleep(*interval)
	}
}

type client struct {
	base string
}

func (c *client) getJSON(path string, out any) error {
	resp, err := http.Get(c.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		var eb struct {
			Error string `json:"error"`
		}
		if json.Unmarshal(data, &eb) == nil && eb.Error != "" {
			return fmt.Errorf("GET %s: %s", path, eb.Error)
		}
		return fmt.Errorf("GET %s: HTTP %d", path, resp.StatusCode)
	}
	return json.Unmarshal(data, out)
}

// sample is one scrape of the daemon: job list plus metric snapshot,
// stamped with the local receive time so watch mode can turn counter
// deltas into rates.
type sample struct {
	at      time.Time
	jobs    []serve.JobStatus
	metrics map[string]int64
}

func (c *client) sample() (*sample, error) {
	s := &sample{at: time.Now(), metrics: map[string]int64{}}
	if err := c.getJSON("/jobs", &s.jobs); err != nil {
		return nil, err
	}
	var doc struct {
		Metrics []struct {
			Name  string `json:"name"`
			Value int64  `json:"value"`
		} `json:"metrics"`
	}
	if err := c.getJSON("/metrics", &doc); err != nil {
		return nil, err
	}
	for _, m := range doc.Metrics {
		s.metrics[m.Name] = m.Value
	}
	return s, nil
}

// histBuckets reassembles a histogram's bucket vector from the flat
// metric snapshot (name.bucket[k] series, k contiguous from 0).
func histBuckets(metrics map[string]int64, name string) []int64 {
	var out []int64
	for k := 0; ; k++ {
		v, ok := metrics[name+".bucket["+strconv.Itoa(k)+"]"]
		if !ok {
			return out
		}
		out = append(out, v)
	}
}

// renderSnapshot formats one status view. It builds into a
// strings.Builder (whose writes cannot fail) so rendering needs no
// error plumbing; the caller decides where the text goes.
func renderSnapshot(addr string, s, prev *sample) string {
	var w strings.Builder
	line := func(format string, args ...any) {
		w.WriteString(fmt.Sprintf(format, args...))
	}
	line("refined at %s — %d job(s), queue %d, running %d, journal %s\n",
		addr, len(s.jobs), s.metrics["serve.queue.depth.now"],
		s.metrics["serve.jobs.running.now"], fmtBytes(s.metrics["serve.journal.bytes"]))
	if prev != nil {
		dt := s.at.Sub(prev.at).Seconds()
		if dt > 0 {
			de := s.metrics["core.match.distance_evals"] - prev.metrics["core.match.distance_evals"]
			dv := s.metrics["core.views_refined"] - prev.metrics["core.views_refined"]
			line("rates: %.0f evals/s, %.1f views/s\n", float64(de)/dt, float64(dv)/dt)
		}
	} else {
		line("totals: %d evals, %d views refined\n",
			s.metrics["core.match.distance_evals"], s.metrics["core.views_refined"])
	}

	line("\n%-22s %8s %8s\n", "latency (ticks)", "p50", "p99")
	for _, h := range []struct{ label, name string }{
		{"admit→start", "serve.latency.admit_to_start_ticks"},
		{"level", "serve.latency.level_ticks"},
	} {
		b := histBuckets(s.metrics, h.name)
		line("%-22s %8.1f %8.1f\n", h.label,
			obs.QuantileFromBuckets(b, 0.50), obs.QuantileFromBuckets(b, 0.99))
	}

	if len(s.jobs) == 0 {
		line("\nno jobs\n")
		return w.String()
	}
	jobs := append([]serve.JobStatus(nil), s.jobs...)
	sort.Slice(jobs, func(i, j int) bool { return jobs[i].ID < jobs[j].ID })
	line("\n%-12s %-9s %-18s %s\n", "JOB", "STATE", "PROGRESS", "DETAIL")
	for _, jb := range jobs {
		detail := ""
		switch {
		case jb.Error != "":
			detail = jb.Error
		case jb.Cycle != nil:
			detail = cycleDetail(jb.Cycle)
		case jb.Summary != nil:
			detail = fmt.Sprintf("mean err %.3f rad", jb.Summary.MeanAngularError)
		case jb.Resumed:
			detail = "resumed"
		}
		line("%-12s %-9s %-18s %s\n", jb.ID, jb.State,
			progressBar(jb.LevelsDone, jb.LevelsTotal), detail)
	}
	return w.String()
}

// cycleDetail renders a cycle job's outer-loop position: completed
// cycles, the last FSC 0.5 crossing, the plateau counter, and — once
// the loop has ended — why it stopped.
func cycleDetail(cs *serve.CycleStatus) string {
	s := fmt.Sprintf("cycle %d/%d", cs.Done, cs.Max)
	if cs.ResolutionA > 0 {
		s += fmt.Sprintf(", FSC0.5 %.2f Å", cs.ResolutionA)
	}
	s += fmt.Sprintf(", plateau %d", cs.Plateau)
	if cs.Stopped != "" {
		s += ", stopped: " + cs.Stopped
	}
	return s
}

// progressBar renders "[####......] 2/5"-style level progress.
func progressBar(done, total int) string {
	const width = 10
	if total <= 0 {
		return "[..........] 0/0"
	}
	filled := done * width / total
	return "[" + strings.Repeat("#", filled) + strings.Repeat(".", width-filled) +
		"] " + strconv.Itoa(done) + "/" + strconv.Itoa(total)
}

func fmtBytes(n int64) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%.1f MiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1f KiB", float64(n)/(1<<10))
	default:
		return strconv.FormatInt(n, 10) + " B"
	}
}

// terminalKinds are the event kinds that end a -follow tail.
var terminalKinds = map[string]bool{
	string(serve.StateDone):      true,
	string(serve.StateFailed):    true,
	string(serve.StateCancelled): true,
}

// followSSE tails one job's SSE stream, printing each event's data
// payload as a JSONL line. A dropped connection (daemon restart, kill
// -9) retries after interval with Last-Event-ID, so the resumed stream
// continues exactly where the dead one stopped.
func (c *client) followSSE(id string, interval time.Duration) error {
	var last uint64
	for {
		done, err := c.streamOnce(id, &last)
		if done {
			return nil
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "repstat: stream lost after seq %d (%v); reconnecting\n", last, err)
			time.Sleep(interval)
			continue
		}
		// Clean EOF without a terminal event: the daemon shut down
		// mid-job. Reconnect and keep tailing.
		time.Sleep(interval)
	}
}

// streamOnce runs one SSE connection; done reports that the job's
// terminal event was printed.
func (c *client) streamOnce(id string, last *uint64) (done bool, err error) {
	req, err := http.NewRequest(http.MethodGet, c.base+"/jobs/"+id+"/events", nil)
	if err != nil {
		return false, err
	}
	if *last > 0 {
		req.Header.Set("Last-Event-ID", strconv.FormatUint(*last, 10))
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return false, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		data, rerr := io.ReadAll(resp.Body)
		msg := strings.TrimSpace(string(data))
		if rerr != nil {
			msg = rerr.Error()
		}
		return false, fmt.Errorf("HTTP %d: %s", resp.StatusCode, msg)
	}
	var (
		r       = bufio.NewReader(resp.Body)
		kind    string
		printed bool
	)
	for {
		line, err := r.ReadString('\n')
		if err != nil {
			if err == io.EOF && printed {
				return terminalKinds[kind], nil
			}
			return false, err
		}
		line = strings.TrimRight(line, "\n")
		switch {
		case strings.HasPrefix(line, "id: "):
			if seq, perr := strconv.ParseUint(line[len("id: "):], 10, 64); perr == nil {
				*last = seq
			}
		case strings.HasPrefix(line, "event: "):
			kind = line[len("event: "):]
		case strings.HasPrefix(line, "data: "):
			payload := line[len("data: "):]
			fmt.Println(payload)
			printed = true
			if kind == "gap" {
				fmt.Fprintln(os.Stderr, "repstat: event ring overflowed; tail has a gap")
			}
			var ev obs.EventRecord
			if json.Unmarshal([]byte(payload), &ev) == nil {
				if s := cycleNarration(ev); s != "" {
					fmt.Fprint(os.Stderr, s)
				}
			}
		case line == "":
			if terminalKinds[kind] {
				return true, nil
			}
		}
	}
}

// cycleNarration renders a one-line human reading of a cycle-lifecycle
// event, or "" for other kinds. Follow modes print it to stderr —
// stdout must stay a pure JSONL event journal.
func cycleNarration(ev obs.EventRecord) string {
	f := func(key string) int64 {
		for _, fld := range ev.Fields {
			if fld.Key == key {
				return fld.Value
			}
		}
		return 0
	}
	switch ev.Kind {
	case "cycle_start":
		return fmt.Sprintf("repstat: %s cycle %d/%d started (%d levels)\n",
			ev.Job, f("cycle")+1, f("max_cycles"), f("levels"))
	case "fsc":
		if ma := f("resolution_ma"); ma >= 0 {
			return fmt.Sprintf("repstat: %s cycle %d FSC0.5 %.2f Å, mean CC %.3f, plateau %d\n",
				ev.Job, f("cycle"), float64(ma)/1000, float64(f("mean_cc_ppm"))/1e6, f("plateau"))
		}
		return fmt.Sprintf("repstat: %s cycle %d FSC has no 0.5 crossing, plateau %d\n",
			ev.Job, f("cycle"), f("plateau"))
	case "cycle_end":
		s := fmt.Sprintf("repstat: %s cycle %d end", ev.Job, f("cycle"))
		if f("improved") != 0 {
			s += ", improved"
		} else {
			s += ", no improvement"
		}
		switch f("stopped") {
		case 1:
			s += " — stopping: plateau"
		case 2:
			s += " — stopping: max cycles"
		}
		return s + "\n"
	}
	return ""
}

// followPoll is the long-poll fallback: repeated ?poll=1 requests,
// each blocking server-side until events past the cursor exist.
func (c *client) followPoll(id string) error {
	var cursor uint64
	for {
		var body struct {
			Events  []obs.EventRecord `json:"events"`
			Dropped uint64            `json:"dropped"`
			Next    uint64            `json:"next"`
		}
		path := "/jobs/" + id + "/events?poll=1&since=" + strconv.FormatUint(cursor, 10)
		if err := c.getJSON(path, &body); err != nil {
			return err
		}
		if body.Dropped > 0 {
			fmt.Fprintf(os.Stderr, "repstat: %d event(s) dropped before cursor\n", body.Dropped)
		}
		for _, ev := range body.Events {
			data, err := json.Marshal(ev)
			if err != nil {
				return err
			}
			fmt.Println(string(data))
			if s := cycleNarration(ev); s != "" {
				fmt.Fprint(os.Stderr, s)
			}
			if ev.Job == id && terminalKinds[ev.Kind] {
				return nil
			}
		}
		if body.Next == cursor {
			return nil // daemon had nothing and the connection lapsed
		}
		cursor = body.Next
	}
}
