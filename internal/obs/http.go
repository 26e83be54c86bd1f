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
)

// serve starts the opt-in debug HTTP endpoint on addr, exposing:
//
//	/debug/pprof/...   the standard pprof profiles
//	/debug/vars        expvar (cmdline, memstats)
//	/metrics           the registry snapshot as JSON
//	/progress          the registered progress source's live state
//	                   (see SetProgressSource); 404 until one registers
//
// It returns the bound address (useful with ":0") and a shutdown
// function that closes the listener and drains in-flight requests. The
// server runs on its own mux so importing this package never pollutes
// http.DefaultServeMux.
func serve(addr string, reg *Registry) (string, func() error, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, fmt.Errorf("obs: pprof listen %s: %w", addr, err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = reg.WriteJSON(w)
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
	srv := &http.Server{Handler: mux}
	go func() { _ = srv.Serve(ln) }()
	shutdown := func() error {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		return srv.Shutdown(ctx)
	}
	return ln.Addr().String(), shutdown, nil
}
