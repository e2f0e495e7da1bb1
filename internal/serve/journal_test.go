package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// TestJournalTornTailTruncatedOnReopen pins the crash->restore->crash
// contract: a torn final record is not just skipped by readJournal, it
// is physically truncated when the journal reopens for appending, so
// the next record starts a fresh line. Without the truncate, the new
// record concatenates onto the partial JSON and a second restore either
// fails on mid-file corruption or silently drops an acknowledged record
// as a "torn tail".
func TestJournalTornTailTruncatedOnReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j")
	j, err := openJournal(path, false, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.append(&jrec{Kind: jPlace, Key: "a", placement: &placement{Servers: []int{0}, VMIDs: []int{1}}}); err != nil {
		t.Fatal(err)
	}
	if _, err := j.append(&jrec{Kind: jRelease, Key: "a"}); err != nil {
		t.Fatal(err)
	}
	if err := j.close(); err != nil {
		t.Fatal(err)
	}

	// Simulate kill -9 mid-append: partial JSON with no newline.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"seq":3,"kind":"pl`); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	// First restore: the torn record is dropped, valid ends at record 2.
	recs, valid, err := readJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || recs[1].Seq != 2 {
		t.Fatalf("after torn tail: %d records (want 2), last %+v", len(recs), recs[len(recs)-1])
	}
	size := int64(0)
	if st, err := os.Stat(path); err == nil {
		size = st.Size()
	}
	if valid >= size {
		t.Fatalf("valid offset %d should exclude the torn tail (file is %d bytes)", valid, size)
	}

	// Reopen as restore does and append the next acknowledged record.
	j2, err := openJournal(path, false, recs[len(recs)-1].Seq, valid)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j2.append(&jrec{Kind: jPlace, Key: "b", placement: &placement{Servers: []int{1}, VMIDs: []int{2}}}); err != nil {
		t.Fatal(err)
	}
	if err := j2.close(); err != nil {
		t.Fatal(err)
	}

	// Second restore: all three records, nothing corrupt, nothing lost.
	recs2, _, err := readJournal(path)
	if err != nil {
		t.Fatalf("journal corrupt after reopen+append: %v", err)
	}
	if len(recs2) != 3 || recs2[2].Seq != 3 || recs2[2].Key != "b" {
		t.Fatalf("acknowledged record lost: %d records, last %+v", len(recs2), recs2[len(recs2)-1])
	}
}

// encodeEqual fails t unless enc produced exactly json.Marshal(v), or
// both errored.
func encodeEqual(t *testing.T, what string, v any, got []byte, err error) {
	t.Helper()
	want, werr := json.Marshal(v)
	if (err != nil) != (werr != nil) {
		t.Fatalf("%s: error %v, json.Marshal error %v", what, err, werr)
	}
	if err == nil && !bytes.Equal(got, want) {
		t.Fatalf("%s encodes as\n%s\njson.Marshal writes\n%s", what, got, want)
	}
}

// FuzzJournalEncode: the hand-written journal and snapshot encoders
// write exactly what json.Marshal writes, for every record kind, both
// snapshot item types and the snapshot frame, whatever the keys, ints
// and floats (NaN and ±Inf must fail in both).
func FuzzJournalEncode(f *testing.F) {
	f.Add("job-1", "", 7, 2, 3, 600.0, 0.0, uint8(0), []byte{0, 1})
	f.Add("<a>&b", "\u2028\u2029", -1, 1<<40, math.MinInt64, 1e-7, 1e21, uint8(0xff), []byte{})
	f.Add("\x00\x01\b\f\n\r\t\x1f\x7f\"\\", "\xff\xed\xa0\x80\xc3", 0, 0, 0, math.Copysign(0, -1), 5e-324, uint8(0x0e), []byte{255, 128})
	f.Add("é€😀", "key", 1, -9, 12, 123.456, 1.7976931348623157e308, uint8(0x13), []byte{9})
	f.Add("nan", "inf", 3, 3, 3, math.NaN(), math.Inf(-1), uint8(1), []byte{3})
	f.Fuzz(func(t *testing.T, key, key2 string, a, b, c int, x, y float64, flags uint8, raw []byte) {
		ints := func(scale int) []int {
			if flags&0x20 != 0 {
				return nil
			}
			out := make([]int, len(raw))
			for i, v := range raw {
				out[i] = int(int8(v)) * scale
			}
			return out
		}
		pl := &placement{
			Key: key2, Job: a, Class: wireClass(flags % 4), NominalS: x, MaxS: y, Shard: b,
			Servers: ints(c), VMIDs: ints(a),
			Released: flags&0x04 != 0, Degraded: flags&0x08 != 0, Relaxed: flags&0x10 != 0,
		}
		recs := []jrec{
			{Seq: a, Kind: jPlace, Key: key, placement: pl},
			{Seq: b, Kind: jRelease, Key: key},
			{Seq: c, Kind: jRequeue, Key: key, Server: a, Slot: b, VMID: c},
			{Seq: a, Kind: key2, Server: b, Evict: []evictRec{{Key: key, Slot: b, VMID: c}, {Key: key2}}},
			{Seq: b, Kind: jRecover, Server: c, Shard: a},
			{Kind: jCrash, Evict: []evictRec{}},
		}
		for i := range recs {
			got, err := appendJrec(nil, &recs[i])
			encodeEqual(t, fmt.Sprintf("record %d", i), &recs[i], got, err)
		}
		q := queued{
			Key: key, Job: b, Class: wireClass(flags >> 6), VMs: c, NominalS: y, MaxS: x,
			Requeue: flags&0x02 != 0, Shard: a, Slot: c, VMID: b,
		}
		p := &snapPayload{
			Seq: a, NextVMID: b, Servers: c, Shards: a, MaxVMs: b,
			Down: ints(1), Placements: []*placement{pl, {Key: key}}, Queue: []queued{q, {}},
		}
		if flags&0x40 != 0 {
			p.Placements, p.Queue = nil, nil
		}
		raw, err := appendSnapPayload(nil, p)
		encodeEqual(t, "snapshot payload", p, raw, err)
		if err != nil {
			return
		}
		doc, err := appendSnapshot([]byte("prefix"), p)
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(snapFile{Version: snapshotVersion, CRC: crc32.ChecksumIEEE(raw), Payload: raw})
		if err != nil {
			t.Fatal(err)
		}
		if want = append([]byte("prefix"), append(want, '\n')...); !bytes.Equal(doc, want) {
			t.Fatalf("snapshot document\n%s\nwant\n%s", doc, want)
		}
	})
}

// TestJournalAppendAllocs pins the steady-state journal append at zero
// allocations for the two records every placement writes: the record
// is encoded into the journal's own buffer.
func TestJournalAppendAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector instruments allocations")
	}
	j, err := openJournal(filepath.Join(t.TempDir(), "j"), false, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer j.close()
	pl := &placement{Key: "job-12345", Job: 12345, Class: wireClass(1), NominalS: 600, MaxS: 900.5,
		Servers: []int{17, 42}, VMIDs: []int{100001, 100002}, Degraded: true}
	place := func() {
		if _, err := j.append(&jrec{Kind: jPlace, Key: pl.Key, placement: pl}); err != nil {
			t.Fatal(err)
		}
	}
	release := func() {
		if _, err := j.append(&jrec{Kind: jRelease, Key: pl.Key}); err != nil {
			t.Fatal(err)
		}
	}
	place()
	for name, op := range map[string]func(){"place": place, "release": release} {
		if allocs := testing.AllocsPerRun(200, op); allocs != 0 {
			t.Errorf("%s record: %v allocations per append, want 0", name, allocs)
		}
	}
}

// TestSnapshotWriteAllocs pins the snapshot write's allocations as
// independent of the number of placements: after the first write the
// payload's slices and the encoding buffer are reused, so a larger
// fleet history costs the same file-system calls and nothing more.
func TestSnapshotWriteAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector instruments allocations")
	}
	cfg := testConfig(t, 64, 2)
	cfg.SnapshotPath = filepath.Join(t.TempDir(), "state.snap")
	cfg.SnapshotEvery = time.Hour
	s, err := NewService(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer drainClean(t, s)
	n := 0
	grow := func(count int) {
		for end := n + count; n < end; n++ {
			key := fmt.Sprintf("k-%d", n)
			mustPlace(t, s, key, 1)
			if n%8 != 0 { // keep one in eight live, within the fleet
				if out := s.Release(key); out.Status != 200 {
					t.Fatalf("release %s: %+v", key, out)
				}
			}
		}
	}
	measure := func() float64 {
		if err := s.writeSnapshot(); err != nil { // grows the reused buffers
			t.Fatal(err)
		}
		return testing.AllocsPerRun(5, func() {
			if err := s.writeSnapshot(); err != nil {
				t.Fatal(err)
			}
		})
	}
	grow(50)
	small := measure()
	grow(950)
	large := measure()
	t.Logf("snapshot write: %v allocations at 50 placements, %v at 1000", small, large)
	if large > small {
		t.Errorf("snapshot write allocations grew with the placements: %v at 50, %v at 1000", small, large)
	}
}

// BenchmarkJournalAppend is the journal layer without a disk flush:
// encoding one place record and writing it to the file.
func BenchmarkJournalAppend(b *testing.B) {
	benchJournalAppend(b, false)
}

// BenchmarkJournalAppendFsync adds the per-record fsync -fsync turns on.
func BenchmarkJournalAppendFsync(b *testing.B) {
	benchJournalAppend(b, true)
}

func benchJournalAppend(b *testing.B, fsync bool) {
	j, err := openJournal(filepath.Join(b.TempDir(), "j"), fsync, 0, 0)
	if err != nil {
		b.Fatal(err)
	}
	defer j.close()
	pl := &placement{Key: "job-12345", Job: 12345, Class: wireClass(1), NominalS: 600, MaxS: 900.5,
		Servers: []int{17, 42}, VMIDs: []int{100001, 100002}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := j.append(&jrec{Kind: jPlace, Key: pl.Key, placement: pl}); err != nil {
			b.Fatal(err)
		}
		if i%(1<<14) == 1<<14-1 { // keep the file small, as snapshots do
			b.StopTimer()
			if err := j.f.Truncate(0); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
	}
}
