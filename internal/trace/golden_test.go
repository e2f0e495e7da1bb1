package trace

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"testing"

	"pacevm/internal/swf"
)

// simPAConfigs is the perfbench sim-pa workload's trace shape: 100k VMs
// from an EGEE-shaped trace with the narrower runtime spread (σ 0.5).
func simPAConfigs(seed uint64) (GenConfig, PrepConfig) {
	gcfg := DefaultGenConfig(seed)
	gcfg.Jobs = 100_000/2 + 200
	gcfg.RuntimeSigma = 0.5
	pcfg := DefaultPrepConfig(seed)
	pcfg.TargetVMs = 100_000
	return gcfg, pcfg
}

// TestGoldenPipeline pins the whole set-up pipeline byte for byte: the
// SWF text of each generated trace and the prepared requests plus
// report. Any change to the generator's draws, to SortJobs' order among
// equal submit times, to cleaning or to profile assignment moves a hash.
func TestGoldenPipeline(t *testing.T) {
	simGen, simPrep := simPAConfigs(1)
	cases := []struct {
		name           string
		gen            GenConfig
		prep           PrepConfig
		swfSHA, reqSHA string
	}{
		{"default-seed1", DefaultGenConfig(1), DefaultPrepConfig(1),
			"64af81d616ad88495e8bb5df5e242f76629954f14da7121995cbf3beae018ceb",
			"3472293ed108d99d92aff0024df0e5cdcce7c375d5216011066b497eaf156ef3"},
		{"default-seed2", DefaultGenConfig(2), DefaultPrepConfig(2),
			"17cf76771275afe80a09a3a0b2c2a97e22742c5cb503eecfbb165e6bd678c507",
			"d127a62dee07236c253aae1b0c4abf2574a72f954a523d252f01fdc5d975561f"},
		{"default-seed3", DefaultGenConfig(3), DefaultPrepConfig(3),
			"daaf3a80c69759ef5d7f0e83fb8336a53a8e8edd6ea6b07ca18d83d410ed5db8",
			"23c7527ac003e4193a8bec2e251e5fdefec0817c7bed70be0aa9c4b0ce79da98"},
		{"sim-pa-seed1", simGen, simPrep,
			"8f8f3a4a79c5282fd30755723296d922f0d913be15802fd55e18b1d9f485c077",
			"de77ed7e666410663ed02666043ed34997c0dbb2da4cacc724b41b74eb856e49"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			tr, err := Generate(c.gen)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := swf.Write(&buf, tr); err != nil {
				t.Fatal(err)
			}
			if got := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())); got != c.swfSHA {
				t.Errorf("swf.Write(Generate) sha256 = %s, want %s", got, c.swfSHA)
			}
			reqs, rep, err := Prepare(tr, c.prep)
			if err != nil {
				t.Fatal(err)
			}
			h := sha256.New()
			for _, r := range reqs {
				fmt.Fprintf(h, "%+v\n", r)
			}
			fmt.Fprintf(h, "%+v\n", rep)
			if got := fmt.Sprintf("%x", h.Sum(nil)); got != c.reqSHA {
				t.Errorf("Prepare sha256 = %s, want %s", got, c.reqSHA)
			}
		})
	}
}
