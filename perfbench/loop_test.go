package main

import (
	"sync"
	"testing"
	"time"
)

// A slow operation in an open loop must show up in the latency of the
// arrivals queued behind it, measured from their due times, instead of
// delaying their start unseen as a closed loop would.
func TestOpenLoopChargesQueueingToLaterArrivals(t *testing.T) {
	const (
		interval = 10 * time.Millisecond
		stall    = 100 * time.Millisecond
		n        = 6
	)
	arr := openLoop(n, interval, 1, func(id int) bool {
		if id == 0 {
			time.Sleep(stall)
		}
		return true
	})
	if len(arr) != n {
		t.Fatalf("%d arrivals, want %d", len(arr), n)
	}
	for i, a := range arr {
		if !a.OK {
			t.Errorf("op %d not OK", i)
		}
		if a.Due != time.Duration(i)*interval {
			t.Errorf("op %d due at %v, want %v", i, a.Due, time.Duration(i)*interval)
		}
		if a.Start < a.Enqueued || a.Done < a.Start {
			t.Errorf("op %d: start %v, enqueued %v, done %v out of order", i, a.Start, a.Enqueued, a.Done)
		}
	}
	if got := arr[0].Latency(); got < stall {
		t.Errorf("stalled op latency %v < its own stall %v", got, stall)
	}
	// Ops 1..5 were due during the stall; each waits for it to end.
	for i := 1; i < n; i++ {
		want := stall - time.Duration(i)*interval
		if got := arr[i].Latency(); got < want {
			t.Errorf("op %d latency %v, want at least %v of queueing behind the stall", i, got, want)
		}
		if got := arr[i].QueueWait(); got < want {
			t.Errorf("op %d queue wait %v, want at least %v", i, got, want)
		}
	}
}

// Without a stall, an unsaturated open loop keeps its schedule and its
// ops wait for nothing.
func TestOpenLoopUnsaturated(t *testing.T) {
	arr := openLoop(5, 5*time.Millisecond, 2, func(int) bool { return true })
	for i, a := range arr {
		if a.Latency() > 5*time.Millisecond {
			t.Errorf("op %d latency %v on an idle loop", i, a.Latency())
		}
		if a.Late() < 0 {
			t.Errorf("op %d queued before it was due", i)
		}
	}
}

func TestOpenLoopReportsFailures(t *testing.T) {
	arr := openLoop(4, time.Millisecond, 2, func(id int) bool { return id%2 == 0 })
	for i, a := range arr {
		if a.OK != (i%2 == 0) {
			t.Errorf("op %d OK = %v", i, a.OK)
		}
	}
}

func TestFixedLoopRunsFirstAlone(t *testing.T) {
	var mu sync.Mutex
	active, maxActive := 0, 0
	var order []int
	var firstOverlapped bool
	fixedLoop(2, 10, 7, func(id int) {
		mu.Lock()
		active++
		if active > maxActive {
			maxActive = active
		}
		order = append(order, id)
		mu.Unlock()
		time.Sleep(2 * time.Millisecond)
		mu.Lock()
		if id == 10 && active != 1 {
			firstOverlapped = true
		}
		active--
		mu.Unlock()
	})
	if len(order) != 7 || order[0] != 10 {
		t.Fatalf("ran %v, want 7 ops starting with 10", order)
	}
	seen := map[int]bool{}
	for _, id := range order {
		if id < 10 || id > 16 || seen[id] {
			t.Errorf("unexpected or repeated op %d", id)
		}
		seen[id] = true
	}
	if firstOverlapped {
		t.Error("the first op ran alongside another")
	}
	if maxActive > 2 {
		t.Errorf("%d ops in flight, want at most 2", maxActive)
	}
}

func TestClosedLoopStopsAtDeadline(t *testing.T) {
	var mu sync.Mutex
	ids := map[int]bool{}
	start := time.Now()
	n := closedLoop(2, 5, start.Add(30*time.Millisecond), func(id int) {
		mu.Lock()
		ids[id] = true
		mu.Unlock()
		time.Sleep(time.Millisecond)
	})
	if n != len(ids) || n == 0 {
		t.Fatalf("closedLoop reported %d ops, ran %d", n, len(ids))
	}
	for id := 5; id < 5+n; id++ {
		if !ids[id] {
			t.Errorf("op %d skipped", id)
		}
	}
	if el := time.Since(start); el > time.Second {
		t.Errorf("ran %v past a 30ms deadline", el)
	}
}
