// Command refined is the refinement job daemon: it exposes the
// internal/serve job service over HTTP and keeps a checkpoint journal
// so a killed daemon resumes interrupted refinements mid-schedule.
//
// Quickstart:
//
//	refined -addr 127.0.0.1:8080 -journal jobs.jsonl &
//	curl -s -X POST localhost:8080/jobs \
//	    -d '{"dataset":"asymmetric","scale":2.5,"views":6,"levels":2}'
//	curl -s localhost:8080/jobs/job-000001
//	curl -s localhost:8080/metrics
//
// SIGTERM/SIGINT drains gracefully: in-flight HTTP requests finish,
// running jobs stop at their next level checkpoint, and a restart
// with the same -journal resumes them bit-identically.
//
// The serve package itself is wall-clock-free (replint's simclock
// scope); everything here that touches real time — HTTP timeouts,
// signal handling, the artificial -level-delay used by the CI smoke —
// is deliberately confined to this command.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/serve"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

// requestReadTimeout bounds how long a client may take to send a
// request's headers, and separately the body of a non-GET request.
const requestReadTimeout = 10 * time.Second

// newServer puts the daemon's read deadlines around h. The body
// deadline is set per request and on non-GET routes only, so a GET
// /events stream never carries one; Server.ReadTimeout would put one on
// every request and leave the stream's survival to net/http clearing
// it when its background read starts, and would double as the
// keep-alive idle timeout.
func newServer(h http.Handler, readTimeout time.Duration) *http.Server {
	bounded := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			if err := http.NewResponseController(w).SetReadDeadline(time.Now().Add(readTimeout)); err != nil {
				log.Printf("setting read deadline: %v", err)
			}
		}
		h.ServeHTTP(w, r)
	})
	return &http.Server{Handler: bounded, ReadHeaderTimeout: readTimeout}
}

func run() error {
	var (
		addr       = flag.String("addr", "127.0.0.1:8080", "listen address (use :0 for an ephemeral port)")
		addrFile   = flag.String("addr-file", "", "write the bound listen address to this file (for scripts using -addr :0)")
		journal    = flag.String("journal", "", "checkpoint journal path; empty disables persistence (jobs die with the process)")
		queue      = flag.Int("queue", 16, "admission queue depth; submits beyond it get HTTP 429")
		jobs       = flag.Int("jobs", 1, "concurrent job executors")
		workers    = flag.Int("workers", 0, "views refined at once per job, each loaded, transformed and refined by one worker (0 = GOMAXPROCS)")
		levelDelay = flag.Duration("level-delay", 0, "artificial pause after each level checkpoint (smoke tests: widens the kill window)")
		cycleDelay = flag.Duration("cycle-delay", 0, "artificial pause after each cycle-map checkpoint (smoke tests: widens the mid-reconstruction kill window)")
		artifacts  = flag.String("artifact-dir", "", "directory for cycle map artifacts (default: the journal's directory)")
		eventsCap  = flag.Int("events-cap", 4096, "event ring capacity backing /events and /jobs/{id}/events (0 disables the event log)")
		eventsOut  = flag.String("events-out", "", "write the retained event log as JSONL to this file on drain")
		pprofOn    = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/ (opt-in: profiling endpoints expose internals)")
	)
	flag.Parse()
	log.SetPrefix("refined: ")
	log.SetFlags(log.LstdFlags | log.Lmsgprefix)

	obs.SetEnabled(true)
	obs.StartTrace()
	var events *obs.EventLog
	if *eventsCap > 0 {
		events = obs.StartEvents(*eventsCap)
	}

	opt := serve.Options{
		QueueDepth: *queue,
		RunWorkers: *jobs,
		Stream:     core.StreamOptions{Workers: *workers},
		Logf:       log.Printf,
	}
	if *journal != "" {
		j, err := serve.OpenJournal(*journal)
		if err != nil {
			return err
		}
		defer func() {
			if err := j.Close(); err != nil {
				log.Printf("closing journal: %v", err)
			}
		}()
		opt.Journal = j
	}
	if *levelDelay > 0 {
		opt.OnLevel = func(id string, level int) { time.Sleep(*levelDelay) }
	}
	if *cycleDelay > 0 {
		opt.OnCycleMap = func(id string, c int) { time.Sleep(*cycleDelay) }
	}
	opt.ArtifactDir = *artifacts
	m, err := serve.NewManager(opt)
	if err != nil {
		return err
	}
	m.Start()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	log.Printf("listening on %s", ln.Addr())
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(ln.Addr().String()+"\n"), 0o644); err != nil {
			return fmt.Errorf("writing -addr-file: %w", err)
		}
	}

	var handler http.Handler = serve.NewHandler(m)
	if *pprofOn {
		mux := http.NewServeMux()
		mux.Handle("/", handler)
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		handler = mux
		log.Printf("pprof mounted at /debug/pprof/")
	}
	srv := newServer(handler, requestReadTimeout)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		<-ctx.Done()
		log.Printf("signal received; draining")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(shutdownCtx); err != nil {
			log.Printf("http shutdown: %v", err)
		}
	}()
	if err := srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	// HTTP is down; park running jobs at their next checkpoint so a
	// restart with the same journal resumes them.
	m.Drain()
	if events != nil && *eventsOut != "" {
		f, err := os.Create(*eventsOut)
		if err != nil {
			return fmt.Errorf("creating -events-out: %w", err)
		}
		werr := events.WriteJSONL(f)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			return fmt.Errorf("writing -events-out: %w", werr)
		}
		log.Printf("wrote event log to %s", *eventsOut)
	}
	log.Printf("drained")
	return nil
}
