package obs

import (
	"context"
	"encoding/json"
	"expvar"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"time"

	"repro/internal/obs/journal"
)

// ServerConfig selects what the debug HTTP server exposes. Nil members
// disable their endpoints (or leave them empty).
type ServerConfig struct {
	Registry *Registry
	Journal  *journal.Journal // /events streams this journal's emissions

	// MetricsInterval is the /events metrics window period (default 1s).
	MetricsInterval time.Duration
}

// ServeConfig starts the opt-in debug HTTP endpoint on addr, exposing:
//
//	/debug/pprof/...   the standard pprof profiles
//	/debug/vars        expvar (cmdline, memstats)
//	/metrics           the registry snapshot as JSON
//	/events            SSE stream of journal events + periodic metric windows
//	/progress          the registered progress source's live state
//	                   (see SetProgressSource); 404 until one registers
//
// It returns the bound address (useful with ":0") and a shutdown
// function. Shutdown closes the listener and unblocks in-flight
// streaming handlers, so no goroutine outlives the returned call. The
// server runs on its own mux so importing this package never pollutes
// http.DefaultServeMux.
func ServeConfig(addr string, cfg ServerConfig) (string, func() error, error) {
	if cfg.MetricsInterval <= 0 {
		cfg.MetricsInterval = time.Second
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, fmt.Errorf("obs: pprof listen %s: %w", addr, err)
	}
	// done unblocks long-lived handlers (SSE) on shutdown; Shutdown alone
	// would wait forever for them.
	done := make(chan struct{})
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = cfg.Registry.WriteJSON(w)
	})
	mux.HandleFunc("/metrics.prom", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		snap := cfg.Registry.Snapshot()
		_ = WriteProm(w, &snap)
	})
	mux.HandleFunc("/progress", func(w http.ResponseWriter, _ *http.Request) {
		progress := ProgressSource()
		if progress == nil {
			http.Error(w, "no progress source registered", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(progress())
	})
	mux.HandleFunc("/events", sseHandler(cfg, done))
	srv := &http.Server{Handler: mux}
	go func() { _ = srv.Serve(ln) }()
	shutdown := func() error {
		close(done)
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		return srv.Shutdown(ctx)
	}
	return ln.Addr().String(), shutdown, nil
}

// sseHandler streams journal events and periodic metric windows as
// Server-Sent Events:
//
//	event: journal
//	data: {"t_sim":3,"level":"warn","layer":"wep","event":"icv_failure"}
//
//	event: metrics
//	data: {"i":4,"t":5002,"counters":[{"name":"arq.retransmits","value":2}],...}
//
// A metrics frame is the SeriesWindow between two ticks, in the shape
// of a -series line: I counts ticks since the stream opened and T is
// wall-clock milliseconds since then. Ticks where no counter moved and
// no histogram saw samples send nothing. Journal events arrive in live
// emission order (wall clock), unlike the deterministic (t_sim, seq)
// merge of the -journal file. The handler returns when the client
// disconnects or the server shuts down.
func sseHandler(cfg ServerConfig, done <-chan struct{}) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		fl, ok := w.(http.Flusher)
		if !ok {
			http.Error(w, "streaming unsupported", http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "text/event-stream")
		w.Header().Set("Cache-Control", "no-cache")
		w.Header().Set("Connection", "keep-alive")

		var evCh <-chan journal.Event
		if cfg.Journal != nil {
			ch, cancel := cfg.Journal.Subscribe(256)
			defer cancel()
			evCh = ch
		}
		// The baseline precedes hello, so a client that has read hello
		// sees every later change in some window.
		start := time.Now()
		var prev Snapshot
		if cfg.Registry != nil {
			prev = cfg.Registry.Snapshot()
		}
		fmt.Fprintf(w, "event: hello\ndata: {\"metric_interval_ms\":%d}\n\n",
			cfg.MetricsInterval.Milliseconds())
		fl.Flush()

		tick := time.NewTicker(cfg.MetricsInterval)
		defer tick.Stop()
		var buf []byte
		var n int64 // ticks so far: the next window's I
		for {
			select {
			case <-done:
				return
			case <-r.Context().Done():
				return
			case e, ok := <-evCh: // nil when no journal: never fires
				if !ok {
					evCh = nil
					continue
				}
				buf = journal.AppendJSON(buf[:0], e)
				fmt.Fprintf(w, "event: journal\ndata: %s\n\n", buf)
				fl.Flush()
			case <-tick.C:
				if cfg.Registry == nil {
					continue
				}
				cur := cfg.Registry.Snapshot()
				win := seriesDiff(&prev, &cur)
				prev = cur
				win.I, win.T = n, time.Since(start).Milliseconds()
				n++
				if len(win.Counters) == 0 && len(win.Histograms) == 0 {
					continue
				}
				blob, err := json.Marshal(win)
				if err != nil {
					continue
				}
				fmt.Fprintf(w, "event: metrics\ndata: %s\n\n", blob)
				fl.Flush()
			}
		}
	}
}
