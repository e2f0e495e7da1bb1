package campaign

import (
	"runtime"
	"testing"
)

// campaignAllocBound caps the bytes one full-grid campaign may allocate.
// The campaign keeps no meter samples and reuses one hypervisor buffer
// per worker, so what it allocates is about 1.6 MB: the records, the
// model database and each experiment's benchmark set. The bound leaves
// about 2x headroom; per-window or per-experiment garbage (the meter's
// sample slice alone was 183 MB) fails it.
const campaignAllocBound = 3 << 20

// TestCampaignAllocs pins what one campaign.Run of the grid that
// pacevm-serve and the benchmark build allocates, in bytes.
func TestCampaignAllocs(t *testing.T) {
	cfg := DefaultConfig()
	cfg.FullGridTotal = 16
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	db, _, err := Run(cfg)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("campaign.Run allocated %d bytes in %d allocations for %d records",
		got, after.Mallocs-before.Mallocs, db.Len())
	if got > campaignAllocBound {
		t.Errorf("campaign.Run allocated %d bytes, bound %d", got, campaignAllocBound)
	}
}
