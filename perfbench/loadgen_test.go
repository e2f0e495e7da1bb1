package main

import (
	"io"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"
	"time"
)

// TestOpenLoopCarriesStall drives a stub service that stalls once for
// 200 ms, holding every request. Each request due during the stall must
// report a latency of at least the time from its due instant to the
// stall's end: the generator times from the intended send time, so the
// wait a stall imposes on later requests is not omitted.
func TestOpenLoopCarriesStall(t *testing.T) {
	const n, gap, stallAt, stallFor = 400, time.Millisecond, 100, 200 * time.Millisecond
	var mu sync.Mutex
	var start time.Time
	var stallBegin, stallEnd time.Duration
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock() // every request waits while the stall holds the lock
		defer mu.Unlock()
		if r.URL.Query().Get("i") == strconv.Itoa(stallAt) {
			stallBegin = time.Since(start)
			time.Sleep(stallFor)
			stallEnd = time.Since(start)
		}
		io.WriteString(w, "ok") //nolint:errcheck // test stub
	}))
	defer srv.Close()
	c := &http.Client{Transport: &http.Transport{MaxConnsPerHost: senders, MaxIdleConnsPerHost: senders}}
	defer c.CloseIdleConnections()

	due := make([]time.Duration, n)
	for i := range due {
		due[i] = time.Duration(i) * gap
	}
	start = time.Now().Add(10 * time.Millisecond)
	lat, late := openLoop(start, due, senders, func(i int) {
		resp, err := c.Get(srv.URL + "?i=" + strconv.Itoa(i))
		if err != nil {
			t.Error(err)
			return
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck // test stub
		resp.Body.Close()
	})

	mu.Lock()
	defer mu.Unlock()
	carried := 0
	for i, d := range due {
		if d <= stallBegin || d >= stallEnd {
			continue
		}
		carried++
		if lat[i] < stallEnd-d {
			t.Errorf("request %d due at %v reports %v, but the stall held it until %v", i, d, lat[i], stallEnd)
		}
	}
	if carried < 100 {
		t.Fatalf("only %d requests fell due during the stall [%v, %v]", carried, stallBegin, stallEnd)
	}
	if p := quantile(durations(late), 0.5); p > float64(gap/time.Millisecond)*50 {
		t.Errorf("generator median lateness %.2f ms: the schedule itself stalled", p)
	}
}

func durations(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

// TestBuildPhase checks the schedule invariants the audit relies on:
// every placed key is released once, after its place; replays target
// only keys placed earlier and not yet released; due times never
// decrease; the same seed gives the same schedule.
func TestBuildPhase(t *testing.T) {
	ph := phase{"heavy", 800, 1000}
	ops := buildPhase(rand.New(rand.NewPCG(7, 1)), ph)
	again := buildPhase(rand.New(rand.NewPCG(7, 1)), ph)
	if len(ops) != len(again) {
		t.Fatalf("same seed, %d vs %d operations", len(ops), len(again))
	}
	placed := map[int]bool{}
	released := map[int]bool{}
	replays := 0
	for i, o := range ops {
		if o != again[i] {
			t.Fatalf("same seed, operation %d differs: %+v vs %+v", i, o, again[i])
		}
		if i > 0 && o.due < ops[i-1].due {
			t.Fatalf("operation %d due at %v before its predecessor", i, o.due)
		}
		switch o.kind {
		case opPlace:
			placed[o.key] = true
		case opRelease:
			if !placed[o.key] || released[o.key] {
				t.Fatalf("release of key %d: placed=%v released=%v", o.key, placed[o.key], released[o.key])
			}
			released[o.key] = true
		case opReplay:
			replays++
			if !placed[o.key] || released[o.key] {
				t.Fatalf("replay of key %d: placed=%v released=%v", o.key, placed[o.key], released[o.key])
			}
		}
	}
	if len(placed) != ph.pairs || len(released) != ph.pairs {
		t.Errorf("%d placed, %d released, want %d each", len(placed), len(released), ph.pairs)
	}
	if share := float64(replays) / float64(len(ops)); share < 0.07 || share > 0.13 {
		t.Errorf("replays are %.3f of sends, want about 0.1", share)
	}
}
