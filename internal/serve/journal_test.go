package serve

import (
	"os"
	"path/filepath"
	"testing"
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
