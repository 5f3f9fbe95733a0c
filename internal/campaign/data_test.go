package campaign

import (
	"testing"
	"time"

	"grid3/internal/core"
)

// TestDataSweepBaselineIsRawGridFTP: the baseline runs the historical data
// plane even when Base arms every managed feature, so it never queues a
// transfer behind a door or grants an SRM reservation; the managed run
// still does both, behind Base's doors.
func TestDataSweepBaselineIsRawGridFTP(t *testing.T) {
	base := core.ScenarioConfig{
		Config: core.Config{
			TestbedSites:         8,
			UseSRM:               true,
			TransferDoors:        2,
			EnableReplicaRanking: true,
			EnableStorageCleanup: true,
		},
		Horizon:  48 * time.Hour,
		JobScale: 0.01,
	}
	rep, err := DataSweep(DataSweepConfig{Seeds: []int64{1}, Base: base})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Days != 2 || rep.JobScale != 0.01 || rep.Doors != 2 {
		t.Errorf("report records %d days, scale %g, %d doors; want Base's 2, 0.01, 2",
			rep.Days, rep.JobScale, rep.Doors)
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
