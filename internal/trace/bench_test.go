package trace

import "testing"

// BenchmarkTracePrepare is the set-up layer of the sim-pa workload:
// generate the 50,200-job EGEE-shaped trace (its in-place submit-order
// sort included) and prepare it into 100k VMs of requests (cleaning
// included).
func BenchmarkTracePrepare(b *testing.B) {
	gcfg, pcfg := simPAConfigs(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr, err := Generate(gcfg)
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := Prepare(tr, pcfg); err != nil {
			b.Fatal(err)
		}
	}
}
