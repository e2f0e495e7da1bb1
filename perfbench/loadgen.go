package main

import (
	"sync"
	"time"
)

// openLoop runs len(due) operations on a fixed schedule: operation i
// becomes due at start+due[i] whether or not earlier ones have
// completed, and is handed to the first free one of workers senders;
// when all are busy it waits in an unbounded client-side queue. do(i)
// performs operation i.
//
// lat[i] is measured from the intended send time start+due[i], not from
// the moment a sender picked the operation up, so a stall delays every
// operation due while it lasts (no coordinated omission). late[i] is how
// late the schedule itself released operation i — the generator's own
// error, reported so a result can be discarded when it is large.
func openLoop(start time.Time, due []time.Duration, workers int, do func(i int)) (lat, late []time.Duration) {
	lat = make([]time.Duration, len(due))
	late = make([]time.Duration, len(due))
	// Buffered to the whole schedule so the scheduler never blocks on
	// busy senders: queueing happens here and counts in lat.
	ready := make(chan int, len(due))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range ready {
				do(i)
				lat[i] = time.Since(start) - due[i]
			}
		}()
	}
	for i, d := range due {
		if wait := time.Until(start.Add(d)); wait > 0 {
			time.Sleep(wait)
		}
		late[i] = time.Since(start) - d
		ready <- i
	}
	close(ready)
	wg.Wait()
	return lat, late
}
