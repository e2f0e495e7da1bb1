package main

import "testing"

func cleanTranscript() transcript {
	return transcript{
		Exchanges: []exchange{
			{Op: opPlace, Key: "k0", Status: 200, Servers: []int{3, 3}, VMIDs: []int{1, 2}},
			{Op: opPlace, Key: "k1", Status: 200, Servers: []int{5}, VMIDs: []int{3}},
			{Op: opReplay, Key: "k0", Status: 200, Servers: []int{3, 3}, VMIDs: []int{1, 2}, Replayed: true},
			{Op: opRelease, Key: "k0", Status: 200, Servers: []int{3, 3}, VMIDs: []int{1, 2}},
			{Op: opRelease, Key: "k1", Status: 200, Servers: []int{5}, VMIDs: []int{3}},
		},
		Stdout: "pacevm-serve: listening on 127.0.0.1:1\npacevm-serve: drained clean\n",
	}
}

func TestAuditCleanTranscript(t *testing.T) {
	if bad := auditTranscript(cleanTranscript()); len(bad) > 0 {
		t.Fatalf("clean transcript flagged: %v", bad)
	}
}

// TestAuditCatchesDoctoredTranscripts breaks each audited property in
// turn; every doctored transcript must be flagged.
func TestAuditCatchesDoctoredTranscripts(t *testing.T) {
	for name, doctor := range map[string]func(*transcript){
		"duplicate VM id":      func(t *transcript) { t.Exchanges[1].VMIDs = []int{2} },
		"replay other servers": func(t *transcript) { t.Exchanges[2].Servers = []int{3, 4} },
		"replay other vm_ids":  func(t *transcript) { t.Exchanges[2].VMIDs = []int{1, 7} },
		"replay not marked":    func(t *transcript) { t.Exchanges[2].Replayed = false },
		"replay refused":       func(t *transcript) { t.Exchanges[2].Status = 429 },
		"release refused":      func(t *transcript) { t.Exchanges[3].Status = 404 },
		"fresh key replayed":   func(t *transcript) { t.Exchanges[1].Replayed = true },
		"exit non-zero":        func(t *transcript) { t.ExitCode = 1 },
		"drain not clean":      func(t *transcript) { t.Stdout = "pacevm-serve: listening on 127.0.0.1:1\n" },
	} {
		tr := cleanTranscript()
		tr.Exchanges = append([]exchange(nil), tr.Exchanges...)
		doctor(&tr)
		if bad := auditTranscript(tr); len(bad) == 0 {
			t.Errorf("%s: not flagged", name)
		}
	}
}

// TestAuditSkipsFailedPlaces: a key the service refused has no ack to
// compare against, so its follow-ups are failed operations, not audit
// problems.
func TestAuditSkipsFailedPlaces(t *testing.T) {
	tr := cleanTranscript()
	tr.Exchanges = append(tr.Exchanges,
		exchange{Op: opPlace, Key: "k2", Status: 503},
		exchange{Op: opRelease, Key: "k2", Status: 404})
	if bad := auditTranscript(tr); len(bad) > 0 {
		t.Fatalf("refused key flagged: %v", bad)
	}
}
