package campaign

import (
	"testing"

	"grid3/internal/core"
)

// TestDataSweepBaselineIsRawGridFTP: the baseline runs the historical data
// plane even when Base arms every managed feature, so it never queues a
// transfer behind a door or grants an SRM reservation; the managed run
// still does both.
func TestDataSweepBaselineIsRawGridFTP(t *testing.T) {
	base := core.ScenarioConfig{Config: core.Config{
		TestbedSites:         8,
		UseSRM:               true,
		TransferDoors:        2,
		EnableReplicaRanking: true,
		EnableStorageCleanup: true,
	}}
	rep, err := DataSweep(DataSweepConfig{
		Seeds:    []int64{1},
		Days:     2,
		JobScale: 0.01,
		Doors:    2,
		Base:     base,
	})
	if err != nil {
		t.Fatal(err)
	}
	b, m := rep.Points[0].Baseline, rep.Points[0].Managed
	if b.Queued != 0 || b.PeakQueue != 0 || b.Granted != 0 {
		t.Errorf("baseline queued %d (peak %d) and granted %d SRM reservations, want 0",
			b.Queued, b.PeakQueue, b.Granted)
	}
	if m.Queued == 0 {
		t.Error("managed run queued no transfers behind its doors")
	}
}
