// Command mswatch follows a running tool's observability server (the
// -pprof endpoint any cmd in this repo exposes) from another terminal:
// it streams the /events SSE feed — journal events, ALERT lines for
// fired SLO rules, and a rates line per metrics window — and polls
// /progress for live sweep status, rendering both as plain lines so it
// works over a pipe as well as a terminal.
//
// When the stream drops (the watched tool restarted, the network
// blipped), mswatch reconnects with capped exponential backoff instead
// of dying — the natural behavior for a monitor pointed at a gateway
// that is itself being chaos-tested. It gives up after maxFails
// consecutive failures; exit status is 0 if it ever connected.
//
// Typical use:
//
//	msgateway -pprof localhost:6060 &
//	mswatch -addr localhost:6060
package main

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"time"

	"repro/internal/backoff"
	"repro/internal/obs"
	"repro/internal/obs/journal"
)

// progressEvery is the /progress poll period, and maxFails the
// consecutive connection failures before mswatch gives up.
const (
	progressEvery = 500 * time.Millisecond
	maxFails      = 10
)

func main() {
	addr := flag.String("addr", "localhost:6060", "obs server address (host:port) of the tool to watch")
	level := flag.String("level", "info", "minimum journal level to print: debug, info, warn or crit")
	promOnce := flag.Bool("prom", false, "one-shot: fetch /metrics.prom, validate the exposition text, print a family summary, exit")
	flag.Parse()

	if *promOnce {
		if err := checkProm("http://" + *addr); err != nil {
			fmt.Fprintf(os.Stderr, "mswatch: -prom: %v\n", err)
			os.Exit(1)
		}
		return
	}

	min, err := journal.ParseLevel(*level)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mswatch: -level: %v\n", err)
		os.Exit(2)
	}
	v := &view{w: os.Stdout, min: min}

	base := "http://" + *addr
	stopProgress := make(chan struct{})
	go pollProgress(base, progressEvery, v, stopProgress)

	ever := streamLoop(
		func() (io.ReadCloser, error) { return dialEvents(base) },
		v.handle,
		maxFails,
		backoff.Policy{Base: 200 * time.Millisecond, Max: 10 * time.Second, Seed: time.Now().UnixNano()},
		nil,
		func(msg string) { fmt.Fprintf(os.Stderr, "mswatch: %s\n", msg) },
	)
	close(stopProgress)
	if !ever {
		os.Exit(1)
	}
	// The watched tool went away for good — normal end.
}

// checkProm fetches the Prometheus exposition endpoint once, runs it
// through the strict parser, and prints one line per metric family.
// Any malformed line fails the whole check — CI uses this as the
// format gate for /metrics.prom.
func checkProm(base string) error {
	resp, err := http.Get(base + "/metrics.prom")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s/metrics.prom: %s", base, resp.Status)
	}
	families, err := obs.ParseProm(io.LimitReader(resp.Body, 8<<20))
	if err != nil {
		return err
	}
	samples := 0
	for _, f := range families {
		fmt.Printf("%s %s: %d sample(s)\n", f.Type, f.Name, len(f.Samples))
		samples += len(f.Samples)
	}
	fmt.Printf("ok: %d families, %d samples\n", len(families), samples)
	return nil
}

// dialEvents opens the /events SSE stream.
func dialEvents(base string) (io.ReadCloser, error) {
	resp, err := http.Get(base + "/events")
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		return nil, fmt.Errorf("%s/events: %s", base, resp.Status)
	}
	return resp.Body, nil
}

// streamLoop reads SSE events from successive connections established
// by dial, reconnecting with pol's capped exponential backoff. A
// successful connection resets the failure budget; maxFails
// consecutive failures (or, with maxFails 0, the first stream end)
// stop the loop. sleep may be nil (time.Sleep) — tests inject a
// recorder to pin the reconnect schedule. Returns whether any
// connection ever succeeded.
func streamLoop(dial func() (io.ReadCloser, error), handle func(sseEvent),
	maxFails int, pol backoff.Policy, sleep func(time.Duration), logf func(string)) bool {
	if sleep == nil {
		sleep = time.Sleep
	}
	ever := false
	fails := 0
	for attempt := 0; ; attempt++ {
		body, err := dial()
		if err == nil {
			ever = true
			fails = 0
			attempt = -1 // next delay (if any) restarts the schedule
			if rerr := readSSE(body, handle); rerr != nil && rerr != io.EOF && logf != nil {
				logf("stream: " + rerr.Error())
			}
			body.Close()
			if maxFails <= 0 {
				return ever // reconnecting disabled: first stream end is final
			}
			if logf != nil {
				logf("stream ended — reconnecting")
			}
			continue
		}
		fails++
		if logf != nil {
			logf(fmt.Sprintf("connect (%d/%d): %v", fails, maxFails, err))
		}
		if maxFails <= 0 || fails >= maxFails {
			return ever
		}
		sleep(pol.Delay(attempt))
	}
}

// pollProgress fetches /progress on a fixed period and hands payloads to
// the view, which deduplicates unchanged states. Connection errors and
// non-200s are tolerated (the watched tool may be between restarts);
// polling runs until stop closes.
func pollProgress(base string, every time.Duration, v *view, stop <-chan struct{}) {
	tick := time.NewTicker(every)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
		}
		resp, err := http.Get(base + "/progress")
		if err != nil {
			continue
		}
		if resp.StatusCode != http.StatusOK {
			resp.Body.Close()
			continue
		}
		payload, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
		resp.Body.Close()
		if err != nil {
			continue
		}
		v.progress(payload)
	}
}
