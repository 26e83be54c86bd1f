package obs

import (
	"context"
	"encoding/json"
	"expvar"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"time"

	"repro/internal/obs/journal"
)

// ServerConfig selects what the debug HTTP server exposes. Nil members
// disable their endpoints (or leave them empty).
type ServerConfig struct {
	Registry *Registry
	Journal  *journal.Journal // /events streams this journal's emissions
	Alerts   func() []byte    // /alerts payload (fired SLO rules as JSON)

	// MetricsInterval is the /events metric-delta period (default 1s).
	MetricsInterval time.Duration
}

// ServeConfig starts the opt-in debug HTTP endpoint on addr, exposing:
//
//	/debug/pprof/...   the standard pprof profiles
//	/debug/vars        expvar (cmdline, memstats)
//	/metrics           the registry snapshot as JSON
//	/events            SSE stream of journal events + periodic metric deltas
//	/progress          the registered progress source's live state
//	                   (see SetProgressSource); 404 until one registers
//	/alerts            fired SLO rules as JSON
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
	mux.HandleFunc("/alerts", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if cfg.Alerts == nil {
			_, _ = w.Write([]byte("[]\n"))
			return
		}
		_, _ = w.Write(cfg.Alerts())
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

// sseHandler streams journal events and periodic metric deltas as
// Server-Sent Events:
//
//	event: journal
//	data: {"t_sim":3,"level":"warn","layer":"wep","event":"icv_failure"}
//
//	event: metrics
//	data: {"counters":{"arq.retransmits":2},"gauges":{...}}
//
// Journal events arrive in live emission order (wall clock), unlike the
// deterministic (t_sim, seq) merge of the -journal file. The handler
// returns when the client disconnects or the server shuts down.
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
		fmt.Fprintf(w, "event: hello\ndata: {\"metric_interval_ms\":%d}\n\n",
			cfg.MetricsInterval.Milliseconds())
		fl.Flush()

		tick := time.NewTicker(cfg.MetricsInterval)
		defer tick.Stop()
		var prev Snapshot
		if cfg.Registry != nil {
			prev = cfg.Registry.Snapshot()
		}
		var buf []byte
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
				if delta := metricDelta(prev, cur); delta != "" {
					fmt.Fprintf(w, "event: metrics\ndata: %s\n\n", delta)
					fl.Flush()
				}
				prev = cur
			}
		}
	}
}

// maxDeltaEntries bounds one SSE metrics payload: at most this many
// changed metrics (counters first, then gauges, each in sorted-name
// order) are rendered; the rest are summarized in a "truncated" count
// so a huge registry cannot wedge slow subscribers with megabyte
// events.
const maxDeltaEntries = 256

// metricDelta renders the counters that moved (as increments) and the
// gauges that changed (as values) between two snapshots, in snapshot
// (sorted-name) order; "" when nothing changed. Output is capped at
// maxDeltaEntries entries; when the cap bites, the payload carries a
// "truncated" field with the number of changed metrics dropped.
func metricDelta(prev, cur Snapshot) string {
	pc := make(map[string]int64, len(prev.Counters))
	for _, c := range prev.Counters {
		pc[c.Name] = c.Value
	}
	pg := make(map[string]float64, len(prev.Gauges))
	for _, g := range prev.Gauges {
		pg[g.Name] = g.Value
	}
	var cs, gs []string
	truncated := 0
	for _, c := range cur.Counters {
		if d := c.Value - pc[c.Name]; d != 0 {
			if len(cs) >= maxDeltaEntries {
				truncated++
				continue
			}
			cs = append(cs, strconv.Quote(c.Name)+":"+strconv.FormatInt(d, 10))
		}
	}
	for _, g := range cur.Gauges {
		if g.Value != pg[g.Name] {
			if len(cs)+len(gs) >= maxDeltaEntries {
				truncated++
				continue
			}
			gs = append(gs, strconv.Quote(g.Name)+":"+strconv.FormatFloat(g.Value, 'g', -1, 64))
		}
	}
	if len(cs) == 0 && len(gs) == 0 && truncated == 0 {
		return ""
	}
	out := `{"counters":{` + strings.Join(cs, ",") + `},"gauges":{` + strings.Join(gs, ",") + `}`
	if truncated > 0 {
		out += `,"truncated":` + strconv.Itoa(truncated)
	}
	return out + `}`
}
