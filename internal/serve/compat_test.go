package serve

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestFormatCompat pins the on-disk formats. testdata/compat holds a
// snapshot and journal written by the service before snapshots and
// journal records shared its placement type, on a 4-server, 2-shard
// fleet (MaxVMsPerServer 4): server 1 crashed, "released" placed and
// released, "evicted" placed (2 VMs) and both VMs parked by server 0's
// crash, "steady" placed, "queued-1" and "queued-2" queued, snapshot;
// then, in the journal only, server 1 recovered, evicted slot 0
// requeued onto it, "queued-1" placed, "late" placed and released,
// server 1 crashed again (evicting slot 0) and server 0 recovered.
// restored.snap is that build's snapshot of the state it restored from
// those two files. Restore here must reach the same state byte for
// byte, pass the watchdog, and re-encode every journal record as read,
// through json.Marshal and through the journal's own encoder.
func TestFormatCompat(t *testing.T) {
	src := filepath.Join("testdata", "compat")
	dir := t.TempDir()
	for _, name := range []string{"state.snap", "state.snap.journal"} {
		b, err := os.ReadFile(filepath.Join(src, name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	cfg := testConfig(t, 4, 2)
	cfg.SnapshotPath = filepath.Join(dir, "state.snap")
	cfg.Restore = true
	s, err := newService(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.j.close()
	s.wd.RunChecks(0)
	if v := s.Violations(); len(v) != 0 {
		t.Fatalf("restore left %d violations; first: %+v", len(v), v[0])
	}

	if err := s.writeSnapshot(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(cfg.SnapshotPath)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join(src, "restored.snap"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("restored state diverged:\n got %s\nwant %s", got, want)
	}

	journal := filepath.Join(src, "state.snap.journal")
	recs, _, err := readJournal(journal)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSuffix(raw, []byte("\n")), []byte("\n"))
	if len(recs) != len(lines) {
		t.Fatalf("read %d journal records from %d lines", len(recs), len(lines))
	}
	for i := range recs {
		b, err := json.Marshal(&recs[i])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b, lines[i]) {
			t.Errorf("journal record %d re-encodes as\n%s\nwas\n%s", i+1, b, lines[i])
		}
		if b, err := appendJrec(nil, &recs[i]); err != nil || !bytes.Equal(b, lines[i]) {
			t.Errorf("journal record %d: appendJrec writes\n%s (err %v)\nwas\n%s", i+1, b, err, lines[i])
		}
	}
}
