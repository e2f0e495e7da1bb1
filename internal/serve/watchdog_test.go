package serve

import (
	"fmt"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"pacevm/internal/workload"
)

// TestWatchdogFlagsSeededCorruption seeds one targeted corruption per
// invariant check into a live service and asserts that check names it.
func TestWatchdogFlagsSeededCorruption(t *testing.T) {
	cases := []struct {
		check, what string
		corrupt     func(s *Service)
	}{
		{"capacity-index", "index allocation drift", func(s *Service) {
			sh := s.shards[0]
			sh.smu.Lock()
			sh.idx.Add(0, workload.ClassCPU, 1) // an allocation no placement holds
			sh.smu.Unlock()
		}},
		{"occupancy", "free-slot drift", func(s *Service) { s.shards[1].freeSlots.Add(1) }},
		{"occupancy", "live-VM count drift", func(s *Service) { s.shards[0].liveVMs.Add(-1) }},
		{"placement-conservation", "duplicate VM uid", func(s *Service) {
			s.mu.Lock()
			dup := *s.byKey["a"]
			dup.Key, dup.Servers = "dup", []int{-1, -1}
			s.byKey["dup"] = &dup // the same VM uids, evicted
			s.mu.Unlock()
		}},
		{"placement-conservation", "slot on another shard", func(s *Service) {
			s.mu.Lock()
			pl := s.byKey["a"]
			s.mu.Unlock()
			sh := s.shards[pl.Shard]
			other := s.shards[1-pl.Shard]
			sh.smu.Lock()
			s.mu.Lock()
			pl.Servers[0] = other.base // a slot on another shard's server
			s.mu.Unlock()
			sh.smu.Unlock()
		}},
		{"queue-sanity", "queued key without marker", func(s *Service) {
			sh := s.shards[0]
			sh.qmu.Lock()
			sh.pend = append(sh.pend, &pending{queued: queued{Key: "no-marker", VMs: 1}})
			sh.qmu.Unlock()
		}},
		{"journal-monotonic", "journal ahead of state", func(s *Service) {
			s.j.mu.Lock()
			s.j.seq++ // a record appended but never applied
			s.j.mu.Unlock()
		}},
	}
	for _, tc := range cases {
		t.Run(tc.check+"/"+tc.what, func(t *testing.T) {
			cfg := testConfig(t, 4, 2)
			cfg.SnapshotPath = filepath.Join(t.TempDir(), "state.snap")
			cfg.SnapshotEvery = time.Hour
			s, err := newService(cfg) // no workers: the test is the only mutator
			if err != nil {
				t.Fatal(err)
			}
			defer s.j.close()
			placeSync(t, s, 0, "a", 2)
			placeSync(t, s, 1, "b", 1)
			s.wd.RunChecks(s.wallT())
			if v := s.Violations(); len(v) != 0 {
				t.Fatalf("clean service flagged: %+v", v)
			}
			tc.corrupt(s)
			s.wd.RunChecks(s.wallT())
			var flagged bool
			for _, v := range s.Violations() {
				flagged = flagged || v.Check == tc.check
			}
			if !flagged {
				t.Errorf("%s missed the corruption; violations: %+v", tc.check, s.Violations())
			}
		})
	}
}

// placeSync places key on the given shard from the test goroutine, as
// that shard's worker would.
func placeSync(t *testing.T, s *Service, shard int, key string, vms int) {
	t.Helper()
	now := s.clock()
	p := &pending{
		queued:   queued{Key: key, VMs: vms, NominalS: 600, Shard: shard},
		enqueued: now, deadline: now.Add(time.Hour), done: make(chan Outcome, 1),
	}
	s.pendingKeys[key] = struct{}{}
	s.shards[shard].handlePlace(p)
	if out := <-p.done; out.Status != 200 {
		t.Fatalf("place %q: %+v", key, out)
	}
}

// TestSweepsDuringMutations runs the watchdog and the snapshotter on
// millisecond timers while clients place and release and servers crash
// and recover, so the race detector sees sweeps and snapshot captures
// read the placement table beside the workers that mutate it. Drain
// must find no violation, and its final snapshot must restore clean.
func TestSweepsDuringMutations(t *testing.T) {
	cfg := testConfig(t, 8, 2)
	cfg.SnapshotPath = filepath.Join(t.TempDir(), "state.snap")
	cfg.SnapshotEvery = time.Millisecond
	cfg.WatchdogEvery = time.Millisecond
	s, err := NewService(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for c := 0; c < 3; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 60; i++ {
				key := fmt.Sprintf("c%d-%d", c, i)
				if out := s.Place("test", PlaceRequest{Key: key, Class: "mem", VMs: 1 + i%3}); out.Status == 200 && i%2 == 0 {
					s.Release(key)
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 30; i++ {
			g := i % cfg.Servers
			if err := s.CrashServer(g); err != nil {
				t.Error(err)
			}
			if err := s.RecoverServer(g); err != nil {
				t.Error(err)
			}
		}
	}()
	wg.Wait()
	drainClean(t, s)
	cfg.Restore = true
	r, err := newService(cfg)
	if err != nil {
		t.Fatal(err)
	}
	_ = r.j.close()
}
