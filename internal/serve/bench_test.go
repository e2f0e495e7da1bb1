package serve

// BenchmarkServe measures the full admission round trip — validate,
// route, queue, shard-worker PA placement, reply — plus the matching
// release, with a sliding window of live placements so the fleet stays
// at a steady mid-load occupancy instead of saturating. Recorded in
// BENCH_sim.json by `make bench-json`.

import (
	"fmt"
	"io"
	"path/filepath"
	"testing"
	"time"
)

func benchConfig(b testing.TB) Config {
	return Config{
		DB:              sharedDB(b),
		Servers:         64,
		Shards:          4,
		MaxVMsPerServer: 4,
		RequestTimeout:  10 * time.Second,
		Watermarks:      [2]time.Duration{2 * time.Second, 4 * time.Second},
		WatchdogEvery:   -1,
	}
}

func BenchmarkServe(b *testing.B) {
	benchServe(b, benchConfig(b))
}

// BenchmarkServeObs is BenchmarkServe with the full observability
// stack on — span tracing, slow ring, per-stage histograms, SLO
// tracking, and the access log (to io.Discard). The delta against
// BenchmarkServe is the per-request observability overhead.
func BenchmarkServeObs(b *testing.B) {
	cfg := benchConfig(b)
	cfg.SlowRing = 32
	cfg.SLOTarget = 500 * time.Millisecond
	cfg.AccessLog = io.Discard
	benchServe(b, cfg)
}

func benchServe(b *testing.B, cfg Config) {
	s, err := NewService(cfg)
	if err != nil {
		b.Fatal(err)
	}
	const window = 128 // live placements held; 256 VM slots total
	classes := [...]string{"cpu", "mem", "io"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key := fmt.Sprintf("b-%d", i)
		out := s.Place("bench", PlaceRequest{Key: key, Class: classes[i%3], VMs: 1})
		if out.Status != 200 {
			b.Fatalf("place %s: status %d reason %q", key, out.Status, out.Reason)
		}
		if i >= window {
			if out := s.Release(fmt.Sprintf("b-%d", i-window)); out.Status != 200 {
				b.Fatalf("release: status %d reason %q", out.Status, out.Reason)
			}
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "req/s")
	if v := s.Drain(30 * time.Second); len(v) != 0 {
		b.Fatalf("drain left %d violations; first: %+v", len(v), v[0])
	}
}

// TestPlaceAllocs pins the allocation count of one placement plus its
// release, through Service.Place and Service.Release with telemetry,
// tracing and the decision recorder all off, in the same steady state
// BenchmarkServe measures. What remains is the request's own state:
// the queued request and its reply channel, the placement record with
// its server and VM-ID slices, the control op and the map entries. The
// PA search, the strategy's VM requests and the decision records
// allocate nothing on this path.
func TestPlaceAllocs(t *testing.T) {
	placeAllocs(t, benchConfig(t))
}

// TestPlaceAllocsDurable is TestPlaceAllocs with the journal on (fsync
// off, no snapshot inside the measurement), under the same bound: the
// place and release records are encoded into the journal's reused
// buffer, so durability adds no allocation.
func TestPlaceAllocsDurable(t *testing.T) {
	cfg := benchConfig(t)
	cfg.SnapshotPath = filepath.Join(t.TempDir(), "state.snap")
	cfg.SnapshotEvery = time.Hour
	placeAllocs(t, cfg)
}

func placeAllocs(t *testing.T, cfg Config) {
	if raceEnabled {
		t.Skip("the race detector drops recycled search scratch at random")
	}
	const window, runs = 128, 200
	s, err := NewService(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Drain(30 * time.Second)
	keys := make([]string, window+runs+1)
	for i := range keys {
		keys[i] = fmt.Sprintf("a-%d", i)
	}
	classes := [...]string{"cpu", "mem", "io"}
	i := 0
	cycle := func() {
		if out := s.Place("bench", PlaceRequest{Key: keys[i], Class: classes[i%3], VMs: 1}); out.Status != 200 {
			t.Fatalf("place %s: status %d reason %q", keys[i], out.Status, out.Reason)
		}
		if i >= window {
			if out := s.Release(keys[i-window]); out.Status != 200 {
				t.Fatalf("release: status %d reason %q", out.Status, out.Reason)
			}
		}
		i++
	}
	for i < window {
		cycle()
	}
	allocs := testing.AllocsPerRun(runs, cycle)
	t.Logf("place+release: %v allocations", allocs)
	if allocs > maxPlaceAllocs {
		t.Errorf("place+release costs %v allocations, want at most %d", allocs, maxPlaceAllocs)
	}
}

// maxPlaceAllocs is TestPlaceAllocs' bound: the count measured when
// journal records stopped escaping to the heap on their way to an
// absent journal (19 before; 58 before the serve path stopped
// formatting VM IDs, building decision records for an absent recorder
// and rebuilding a view of every server for the PA search).
const maxPlaceAllocs = 17
