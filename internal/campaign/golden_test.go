package campaign

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"testing"

	"pacevm/internal/rng"
	"pacevm/internal/workload"
)

// goldenDigests runs a campaign and hashes what it produces: the
// model.csv and aux.csv bytes, and every base-test point bit for bit.
func goldenDigests(t *testing.T, cfg Config) (main, aux, base string) {
	t.Helper()
	db, sum, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m, a := csvs(t, db)
	h := sha256.New()
	for _, class := range workload.Classes {
		for _, p := range sum.Base[class].Points {
			fmt.Fprintf(h, "%d %d %x %x %x %x\n", class, p.N,
				math.Float64bits(float64(p.AvgTimeVM)), math.Float64bits(float64(p.Energy)),
				math.Float64bits(float64(p.PerVMEnergy)), math.Float64bits(float64(p.MaxPower)))
		}
	}
	return digest(m), digest(a), hex.EncodeToString(h.Sum(nil))
}

func digest(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

// TestGoldenCampaign pins the campaign's output by hash: the full
// pricing grid pacevm-serve and perfbench build (noise-free, worker
// pool), and a seeded noisy-meter campaign (the serial path, which
// draws one noise value per meter window in a fixed order). Any change
// to the hypervisor simulation, the meter's arithmetic or its draw
// order fails it.
func TestGoldenCampaign(t *testing.T) {
	full := DefaultConfig()
	full.FullGridTotal = 16

	noisy := DefaultConfig()
	noisy.FullGridTotal = 16
	noisy.MeterNoise = rng.New(20)

	cases := []struct {
		name             string
		cfg              Config
		main, aux, bases string
	}{
		{"full16", full,
			"b580adfc140c8317657c0690b0f2d25050b147545d8c4c03594ce982fdba1a64",
			"fe06c0f70ed055391262a1199b82b3606f47e6b6f324de580df1b9c517af1e01",
			"4cc8a74d454b93773d8ee9ac6ce28e2592334f946fecf7045a31ed0628010fbc"},
		{"noisy16", noisy,
			"092d500a170896919d74f0844886b3b33572ee9b3dd46bd0a8bb2d23c84b4e52",
			"fe06c0f70ed055391262a1199b82b3606f47e6b6f324de580df1b9c517af1e01",
			"8745e9ee3fe914de2dce1edc5a199a72fc4ebb2ba6c6a997d12268684ab75714"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			main, aux, base := goldenDigests(t, c.cfg)
			if main != c.main {
				t.Errorf("model.csv sha256 = %s, want %s", main, c.main)
			}
			if aux != c.aux {
				t.Errorf("aux.csv sha256 = %s, want %s", aux, c.aux)
			}
			if base != c.bases {
				t.Errorf("base points sha256 = %s, want %s", base, c.bases)
			}
		})
	}
}
