package rrd_test

import (
	"testing"
	"time"

	"grid3/internal/ganglia"
	"grid3/internal/monalisa"
	"grid3/internal/rrd"
)

// TestOneDayDatabaseHoldsFilledRows pins the memory a one-day series
// costs: with the Ganglia and MonALISA archive layouts, 5-minute updates
// for 24 hours leave every ring no larger than its Rows and at most twice
// the rows it filled (the hourly archive, 4800 rows deep, fills 24).
func TestOneDayDatabaseHoldsFilledRows(t *testing.T) {
	for name, specs := range map[string][]rrd.ArchiveSpec{
		"ganglia":  ganglia.DefaultArchives,
		"monalisa": monalisa.DefaultArchives,
	} {
		db := rrd.MustNew(specs...)
		for at := time.Duration(0); at < 24*time.Hour; at += 5 * time.Minute {
			if err := db.Update(at, float64(at/time.Minute)); err != nil {
				t.Fatal(err)
			}
		}
		db.FlushTo(24 * time.Hour)
		for i, c := range db.RingCaps() {
			pts, err := db.Fetch(i, -1, 24*time.Hour)
			if err != nil {
				t.Fatal(err)
			}
			if filled := len(pts); filled == 0 || c > specs[i].Rows || c > 2*filled {
				t.Errorf("%s archive %d (%d rows): ring capacity %d for %d filled rows",
					name, i, specs[i].Rows, c, filled)
			}
		}
	}
}
