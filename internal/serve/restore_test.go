package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// restoreFrom writes a snapshot payload (none when payload is nil) and a
// journal into a fresh directory and restores a 4-server, 2-shard
// service from them, without starting its workers.
func restoreFrom(t *testing.T, payload, journal []byte) (*Service, error) {
	t.Helper()
	cfg := testConfig(t, 4, 2)
	cfg.SnapshotPath = filepath.Join(t.TempDir(), "state.snap")
	cfg.Restore = true
	if payload != nil {
		doc := fmt.Sprintf(`{"version":%d,"crc32":%d,"payload":%s}`, snapshotVersion, crc32.ChecksumIEEE(payload), payload)
		if err := os.WriteFile(cfg.SnapshotPath, []byte(doc), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(cfg.SnapshotPath+".journal", journal, 0o644); err != nil {
		t.Fatal(err)
	}
	return newService(cfg)
}

// compatFixture returns the committed snapshot payload and journal.
func compatFixture(t testing.TB) (payload, journal []byte) {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", "compat", "state.snap"))
	if err != nil {
		t.Fatal(err)
	}
	var f snapFile
	if err := json.Unmarshal(raw, &f); err != nil {
		t.Fatal(err)
	}
	journal, err = os.ReadFile(filepath.Join("testdata", "compat", "state.snap.journal"))
	if err != nil {
		t.Fatal(err)
	}
	return f.Payload, journal
}

// TestRestoreRejectsOutOfRangeRecords feeds restore records that parse
// but do not fit the fleet (servers 0-1 are shard 0, 2-3 shard 1) or
// the state restored so far. Each must fail restore with an error; none
// may panic.
func TestRestoreRejectsOutOfRangeRecords(t *testing.T) {
	const shape = `"servers":4,"shards":2,"max_vms":4`
	// One live 1-VM placement on server 0, for journal records to act on.
	const base = `{"seq":1,"next_vm_id":2,` + shape + `,"placements":[{"key":"a","class":"cpu","shard":0,"servers":[0],"vm_ids":[1]}]}`
	cases := []struct {
		name    string
		payload string // "" means no snapshot
		journal string
	}{
		{"crash out of range", "", `{"seq":1,"kind":"crash","server":99}`},
		{"recover below range", "", `{"seq":1,"kind":"recover","server":-3}`},
		{"recover of an up server", "", `{"seq":1,"kind":"recover","server":2}`},
		{"crash of a down server", "", `{"seq":1,"kind":"crash","server":1}` + "\n" + `{"seq":2,"kind":"crash","server":1}`},
		{"crash evicts a slot out of range", base, `{"seq":2,"kind":"crash","server":0,"evict":[{"key":"a","slot":4,"vm_id":1}]}`},
		{"requeue slot out of range", base,
			`{"seq":2,"kind":"crash","server":0,"evict":[{"key":"a","slot":0,"vm_id":1}]}` + "\n" +
				`{"seq":3,"kind":"requeue","key":"a","slot":7,"vm_id":1,"server":1}`},
		{"requeue of a slot not evicted", base, `{"seq":2,"kind":"requeue","key":"a","vm_id":1,"server":1}`},
		{"requeue onto another shard", base,
			`{"seq":2,"kind":"crash","server":0,"evict":[{"key":"a","slot":0,"vm_id":1}]}` + "\n" +
				`{"seq":3,"kind":"requeue","key":"a","vm_id":1,"server":2}`},
		{"place out of range", "", `{"seq":1,"kind":"place","key":"p","class":"cpu","servers":[9],"vm_ids":[1]}`},
		{"place spanning shards", "", `{"seq":1,"kind":"place","key":"p","class":"cpu","servers":[0,3],"vm_ids":[1,2]}`},
		{"place with an evicted slot", "", `{"seq":1,"kind":"place","key":"p","class":"cpu","servers":[-1],"vm_ids":[1]}`},
		{"place with vm uid 0", "", `{"seq":1,"kind":"place","key":"p","class":"cpu","servers":[0],"vm_ids":[0]}`},
		{"place of a placed key", base, `{"seq":2,"kind":"place","key":"a","class":"cpu","servers":[1],"vm_ids":[2]}`},
		{"place on a down server", "", `{"seq":1,"kind":"crash","server":1}` + "\n" +
			`{"seq":2,"kind":"place","key":"p","class":"cpu","servers":[1],"vm_ids":[1]}`},
		{"place with an unknown class", "", `{"seq":1,"kind":"place","key":"p","class":"gpu","servers":[0],"vm_ids":[1]}` + "\n"},
		{"release of a released key", base, `{"seq":2,"kind":"release","key":"a"}` + "\n" + `{"seq":3,"kind":"release","key":"a"}`},
		{"unknown kind", "", `{"seq":1,"kind":"migrate"}`},
		{"snapshot placement outside its shard",
			`{"seq":0,"next_vm_id":2,` + shape + `,"placements":[{"key":"a","class":"cpu","shard":0,"servers":[2],"vm_ids":[1]}]}`, ""},
		{"snapshot placement with a bad shard",
			`{"seq":0,"next_vm_id":2,` + shape + `,"placements":[{"key":"a","class":"cpu","shard":5,"servers":[-1],"vm_ids":[1]}]}`, ""},
		{"snapshot placement without VMs",
			`{"seq":0,"next_vm_id":2,` + shape + `,"placements":[{"key":"a","class":"cpu","shard":0,"servers":[],"vm_ids":[]}]}`, ""},
		{"snapshot down twice", `{"seq":0,"next_vm_id":1,` + shape + `,"down":[1,1],"placements":[]}`, ""},
		{"snapshot down out of range", `{"seq":0,"next_vm_id":1,` + shape + `,"down":[4],"placements":[]}`, ""},
		{"snapshot next vm id 0", `{"seq":0,"next_vm_id":0,` + shape + `,"placements":[]}`, ""},
		{"snapshot queue entry of 9 VMs", `{"seq":0,"next_vm_id":1,` + shape + `,"placements":[],"queue":[{"key":"q","class":"cpu","vms":9}]}`, ""},
		{"snapshot queue entry on a bad shard", `{"seq":0,"next_vm_id":1,` + shape + `,"placements":[],"queue":[{"key":"q","class":"cpu","vms":1,"shard":2}]}`, ""},
		{"snapshot requeue slot out of range", base[:len(base)-1] + `,"queue":[{"key":"a","class":"cpu","vms":1,"requeue":true,"slot":3,"vm_id":1}]}`, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var payload []byte
			if tc.payload != "" {
				payload = []byte(tc.payload)
			}
			s, err := restoreFrom(t, payload, []byte(tc.journal))
			if err == nil {
				s.j.close()
				t.Fatal("restore accepted the record")
			}
			t.Log(err)
		})
	}
}

// FuzzReadJournal: readJournal errors or returns records with strictly
// increasing seqs and a valid prefix inside the file; it never panics.
func FuzzReadJournal(f *testing.F) {
	_, journal := compatFixture(f)
	f.Add(journal)
	f.Add(journal[:len(journal)-7])
	f.Add([]byte(`{"seq":1,"kind":"place","key":"k","class":"gpu","servers":[0],"vm_ids":[1]}`))
	f.Add([]byte("\n\n{\"seq\":2}\n{\"seq\":2}\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "j")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		recs, valid, err := readJournal(path)
		if err != nil {
			return
		}
		if valid < 0 || valid > int64(len(data)) {
			t.Fatalf("valid prefix %d outside a %d-byte file", valid, len(data))
		}
		for i, r := range recs {
			if i > 0 && r.Seq <= recs[i-1].Seq {
				t.Fatalf("record %d: seq %d after %d", i, r.Seq, recs[i-1].Seq)
			}
			if (r.placement != nil) != (r.Kind == jPlace) {
				t.Fatalf("record %d: kind %q with placement %v", i, r.Kind, r.placement)
			}
		}
	})
}

// FuzzRestore: restore from any snapshot payload plus journal either
// errors or yields a state that passes every watchdog check; it never
// panics.
func FuzzRestore(f *testing.F) {
	payload, journal := compatFixture(f)
	f.Add(payload, journal)
	f.Add(payload, []byte{})
	f.Add([]byte(nil), journal)
	f.Add(payload, bytes.ReplaceAll(journal, []byte(`"server":1`), []byte(`"server":3`)))
	f.Add([]byte(strings.Replace(string(payload), `"down":[0,1]`, `"down":[0]`, 1)), journal)
	f.Fuzz(func(t *testing.T, payload, journal []byte) {
		if len(payload) == 0 {
			payload = nil
		}
		s, err := restoreFrom(t, payload, journal)
		if err != nil {
			return
		}
		defer s.j.close()
		s.wd.RunChecks(0)
		if v := s.Violations(); len(v) != 0 {
			t.Fatalf("restore accepted a state that fails %s: %s", v[0].Check, v[0].Detail)
		}
	})
}
