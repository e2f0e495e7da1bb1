package serve

// Crash-safe durability: a write-ahead journal plus periodic
// checksummed snapshots.
//
// Every state-changing decision (place, release, crash, recover,
// requeue) is appended to a JSONL journal — and, with Config.Fsync,
// synced — BEFORE the client sees the acknowledgement, so an
// acknowledged placement survives a kill -9: restart replay re-applies
// it, and the client's retry of an unacknowledged request is caught by
// the idempotency key instead of double-placing. A torn final record
// (the write the crash interrupted) is discarded on replay — by
// construction no client holds its acknowledgement.
//
// Snapshots bound replay: a versioned, CRC-32-checksummed JSON document
// written via tmp+rename carries the full service state (occupancy as
// live placements, down servers, the in-flight queue) at journal
// sequence Seq; restore loads the snapshot, replays only journal
// records with seq > Seq, then runs every watchdog invariant before
// serving. After a successful snapshot the journal is truncated under
// its lock, so it holds only the records the next restore needs.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strconv"
	"sync"
)

// Journal record kinds.
const (
	jPlace   = "place"
	jRelease = "release"
	jCrash   = "crash"
	jRecover = "recover"
	jRequeue = "requeue"
)

// jrec is one journal record. Kind selects the meaningful fields; the
// integer zero values decode identically whether written or omitted,
// so omitempty is safe throughout. appendJrec writes what these tags
// (and placement's) spell; a tag change must change it too, or
// FuzzJournalEncode fails.
type jrec struct {
	Seq  int    `json:"seq"`
	Kind string `json:"kind"`
	// Place / release / requeue: the idempotency key. It shadows the
	// placement's own key, which readJournal copies back.
	Key string `json:"key,omitempty"`
	// Place: the placement; nil for every other kind.
	*placement
	// Shard shadows the placement's shard and stays zero, so a place
	// record never writes one: replay derives it from the servers.
	Shard int `json:"shard,omitempty"`
	// Crash / recover: the global server. Requeue: the new server.
	Server int `json:"server,omitempty"`
	// Requeue: which VM of the placement moved.
	Slot int `json:"slot,omitempty"`
	VMID int `json:"vm_id,omitempty"`
	// Crash: the VMs evicted with the server.
	Evict []evictRec `json:"evict,omitempty"`
}

// evictRec names one VM a crash evicted.
type evictRec struct {
	Key  string `json:"key"`
	Slot int    `json:"slot"`
	VMID int    `json:"vm_id"`
}

// journal is the append-side handle. seq is the last assigned sequence
// number; records are written one JSON line at a time directly to the
// fd (no userspace buffering), so a kill -9 after append loses nothing
// the OS accepted, and Fsync extends that to machine crashes.
type journal struct {
	mu    sync.Mutex
	f     *os.File
	seq   int
	fsync bool
	// buf holds the record being written; it is reused, so a
	// steady-state append allocates nothing.
	buf []byte
}

// openJournal opens (creating if absent) the journal for appending,
// with the sequence counter seeded past everything already applied.
// validSize is the byte offset of the end of the last valid record as
// readJournal reported it; anything beyond it is a torn tail and is
// truncated away, so the next append starts a fresh line instead of
// concatenating onto partial JSON (which a later restore would either
// reject as mid-file corruption or silently drop as a torn tail,
// losing an acknowledged record).
func openJournal(path string, fsync bool, lastSeq int, validSize int64) (*journal, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	if err := f.Truncate(validSize); err != nil {
		f.Close()
		return nil, err
	}
	return &journal{f: f, seq: lastSeq, fsync: fsync}, nil
}

// append assigns the next sequence number to r, writes it, and — when
// configured — syncs before returning. Nil-safe: a service without a
// snapshot path runs journal-less and every append is a no-op
// reporting seq 0.
func (j *journal) append(r *jrec) (int, error) {
	if j == nil {
		return 0, nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	r.Seq = j.seq + 1
	b, err := appendJrec(j.buf[:0], r)
	if err != nil {
		return 0, err
	}
	j.buf = append(b, '\n')
	if _, err := j.f.Write(j.buf); err != nil {
		return 0, err
	}
	if j.fsync {
		if err := j.f.Sync(); err != nil {
			return 0, err
		}
	}
	j.seq = r.Seq
	return r.Seq, nil
}

// lastSeq returns the last assigned sequence number.
func (j *journal) lastSeq() int {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.seq
}

func (j *journal) close() error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.f.Close()
}

// readJournal parses a journal file. A missing file is an empty
// journal. A torn final record — partial JSON on the last line — is
// discarded; any earlier malformed record, or a sequence number that
// does not strictly increase, is corruption and errors out. The second
// return is the byte offset of the end of the last valid record —
// openJournal truncates the torn tail to it before appending.
func readJournal(path string) ([]jrec, int64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, 0, nil
		}
		return nil, 0, err
	}
	lines := bytes.Split(data, []byte("\n"))
	var out []jrec
	lastSeq := 0
	var valid, off int64
	for i, line := range lines {
		end := off + int64(len(line)) + 1 // the '\n' Split consumed...
		if end > int64(len(data)) {
			end = int64(len(data)) // ...which the final segment lacks
		}
		if len(bytes.TrimSpace(line)) == 0 {
			off = end
			continue
		}
		// encoding/json cannot allocate an embedded pointer to an
		// unexported type, so the placement is allocated up front.
		r := jrec{placement: new(placement)}
		if err := json.Unmarshal(line, &r); err != nil {
			var torn *json.SyntaxError
			if i == len(lines)-1 && errors.As(err, &torn) {
				break // torn final record: the crash interrupted this write
			}
			return nil, 0, fmt.Errorf("serve: journal %s line %d: %w", path, i+1, err)
		}
		if r.Seq <= lastSeq {
			return nil, 0, fmt.Errorf("serve: journal %s line %d: seq %d after %d", path, i+1, r.Seq, lastSeq)
		}
		if r.Kind == jPlace {
			r.placement.Key = r.Key
		} else {
			r.placement = nil
		}
		lastSeq = r.Seq
		out = append(out, r)
		valid, off = end, end
	}
	return out, valid, nil
}

// ---- snapshot ----

// snapshotVersion is bumped on any incompatible payload change; restore
// refuses a version it does not speak.
const snapshotVersion = 1

// snapPayload is the checksummed body of a snapshot file: the
// placements (released ones included) and the queued and parked work,
// as the service keeps them. Occupancy is not stored: restore re-derives
// the capacity index from the live placements, so the restored state is
// consistent by construction. appendSnapPayload writes what these tags
// (and placement's and queued's) spell.
type snapPayload struct {
	Seq        int          `json:"seq"` // journal records <= Seq are folded in
	NextVMID   int          `json:"next_vm_id"`
	Servers    int          `json:"servers"`
	Shards     int          `json:"shards"`
	MaxVMs     int          `json:"max_vms"`
	Down       []int        `json:"down,omitempty"` // global ids
	Placements []*placement `json:"placements"`
	Queue      []queued     `json:"queue,omitempty"`
}

// snapFile is the on-disk wrapper: version, CRC-32 (IEEE) of the raw
// payload bytes, payload. readSnapshotFile decodes it;
// writeSnapshotFile writes the same bytes by hand.
type snapFile struct {
	Version int             `json:"version"`
	CRC     uint32          `json:"crc32"`
	Payload json.RawMessage `json:"payload"`
}

// writeSnapshotFile writes the snapshot atomically: encode, checksum,
// write to a same-directory temp file, fsync, rename over the target.
// A crash at any point leaves either the old snapshot or the new one,
// never a torn file. The document is encoded into *buf, which the next
// snapshot reuses.
func writeSnapshotFile(path string, p *snapPayload, buf *[]byte) error {
	doc, err := appendSnapshot((*buf)[:0], p)
	if err != nil {
		return err
	}
	*buf = doc
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(doc); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	// Sync the directory too: the caller truncates the journal the
	// snapshot subsumes, so a power loss must not be able to revert the
	// rename and leave neither the new snapshot nor the journal.
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	if err := d.Sync(); err != nil {
		d.Close()
		return err
	}
	return d.Close()
}

// snapHeadroom is the space appendSnapshot reserves ahead of the
// payload for the frame's opening, {"version":V,"crc32":C,"payload":,
// which is at most 42 bytes.
const snapHeadroom = 64

// appendSnapshot appends the snapshot document, the bytes
// json.Marshal(snapFile{...}) plus a newline would be, without a
// second encoding of the payload: the payload is encoded once after
// some headroom, checksummed, and slid back behind the frame's opening,
// written by hand.
func appendSnapshot(b []byte, p *snapPayload) ([]byte, error) {
	base := len(b)
	b, err := appendSnapPayload(append(b, make([]byte, snapHeadroom)...), p)
	if err != nil {
		return b, err
	}
	var head [snapHeadroom]byte
	h := append(head[:0], `{"version":`...)
	h = strconv.AppendInt(h, snapshotVersion, 10)
	h = append(h, `,"crc32":`...)
	h = strconv.AppendUint(h, uint64(crc32.ChecksumIEEE(b[base+snapHeadroom:])), 10)
	h = append(h, `,"payload":`...)
	n := copy(b[base:], h)
	b = append(b[:base+n], b[base+snapHeadroom:]...)
	return append(b, '}', '\n'), nil
}

// readSnapshotFile loads and verifies a snapshot. A missing file means
// "no snapshot yet" (nil, nil); a version or checksum mismatch is an
// error — restore must never serve from state it cannot vouch for.
func readSnapshotFile(path string) (*snapPayload, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	var f snapFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("serve: snapshot %s: %w", path, err)
	}
	if f.Version != snapshotVersion {
		return nil, fmt.Errorf("serve: snapshot %s: version %d, this build speaks %d", path, f.Version, snapshotVersion)
	}
	if got := crc32.ChecksumIEEE(f.Payload); got != f.CRC {
		return nil, fmt.Errorf("serve: snapshot %s: crc32 %08x, header claims %08x", path, got, f.CRC)
	}
	var p snapPayload
	if err := json.Unmarshal(f.Payload, &p); err != nil {
		return nil, fmt.Errorf("serve: snapshot %s payload: %w", path, err)
	}
	return &p, nil
}
