package main

import (
	"sync"
	"sync/atomic"
	"time"
)

// closedLoop runs do on `clients` goroutines until deadline. Each client
// starts its next operation only when its previous one has returned, so
// a slow system is offered less load. Operations are numbered from
// first in start order; it returns how many ran.
func closedLoop(clients, first int, deadline time.Time, do func(id int)) int {
	var next atomic.Int64
	next.Store(int64(first))
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				do(int(next.Add(1) - 1))
			}
		}()
	}
	wg.Wait()
	return int(next.Load()) - first
}

// fixedLoop runs operations first..first+n-1 as a closed loop: the first
// alone, so that it can fill a session cache the others resume from,
// then the rest on `clients` goroutines.
func fixedLoop(clients, first, n int, do func(id int)) {
	if n <= 0 {
		return
	}
	do(first)
	var next atomic.Int64
	next.Store(int64(first + 1))
	end := int64(first + n)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				id := next.Add(1) - 1
				if id >= end {
					return
				}
				do(int(id))
			}
		}()
	}
	wg.Wait()
}

// arrival is one open-loop operation's schedule, as offsets from the
// start of the loop.
type arrival struct {
	Due      time.Duration // when the schedule says it should start
	Enqueued time.Duration // when the generator queued it
	Start    time.Duration // when a slot picked it up
	Done     time.Duration // when it returned
	OK       bool
}

// Latency is the time from due to done: it includes the wait for a free
// slot, which a closed loop would hide.
func (a arrival) Latency() time.Duration { return a.Done - a.Due }

// QueueWait is the time from due to a slot picking the operation up.
func (a arrival) QueueWait() time.Duration { return a.Start - a.Due }

// Late is how far behind schedule the generator queued the operation.
func (a arrival) Late() time.Duration { return a.Enqueued - a.Due }

// openLoop offers n operations at a fixed interval, whatever the
// progress of earlier ones, and runs them in arrival order on at most
// `slots` goroutines. An operation waits in the queue while every slot
// is busy; its latency runs from its due time, so a stall counts against
// every arrival queued behind it.
func openLoop(n int, interval time.Duration, slots int, do func(id int) bool) []arrival {
	out := make([]arrival, n)
	// Sized to the number of sends, so the generator never blocks on a
	// busy system and keeps to its schedule.
	queue := make(chan int, n)
	start := time.Now()
	var wg sync.WaitGroup
	for s := 0; s < slots; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for id := range queue {
				a := &out[id]
				a.Start = time.Since(start)
				a.OK = do(id)
				a.Done = time.Since(start)
			}
		}()
	}
	for id := 0; id < n; id++ {
		due := time.Duration(id) * interval
		if d := due - time.Since(start); d > 0 {
			time.Sleep(d)
		}
		out[id].Due = due
		out[id].Enqueued = time.Since(start)
		queue <- id
	}
	close(queue)
	wg.Wait()
	return out
}
