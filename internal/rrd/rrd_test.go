package rrd

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(); err == nil {
		t.Fatal("no archives accepted")
	}
	if _, err := New(ArchiveSpec{Step: 0, Rows: 5}); err == nil {
		t.Fatal("zero step accepted")
	}
	if _, err := New(ArchiveSpec{Step: time.Minute, Rows: 0}); err == nil {
		t.Fatal("zero rows accepted")
	}
}

func TestAverageConsolidation(t *testing.T) {
	db := MustNew(ArchiveSpec{Step: time.Minute, Rows: 10, CF: Average})
	// Bucket 1 (0..1m): samples 10, 20 → 15.
	db.Update(10*time.Second, 10)
	db.Update(30*time.Second, 20)
	// Bucket 2 (1m..2m): 40.
	db.Update(90*time.Second, 40)
	db.FlushTo(2 * time.Minute)
	pts, err := db.Fetch(0, 0, 2*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("points = %v", pts)
	}
	if pts[0].Value != 15 || pts[0].Time != time.Minute {
		t.Fatalf("bucket1 = %+v", pts[0])
	}
	if pts[1].Value != 40 || pts[1].Time != 2*time.Minute {
		t.Fatalf("bucket2 = %+v", pts[1])
	}
}

func TestConsolidationFunctions(t *testing.T) {
	db := MustNew(
		ArchiveSpec{Step: time.Minute, Rows: 5, CF: Max},
		ArchiveSpec{Step: time.Minute, Rows: 5, CF: Min},
		ArchiveSpec{Step: time.Minute, Rows: 5, CF: Last},
		ArchiveSpec{Step: time.Minute, Rows: 5, CF: Sum},
	)
	for i, v := range []float64{3, 9, 1} {
		db.Update(time.Duration(i)*10*time.Second, v)
	}
	db.FlushTo(time.Minute)
	want := []float64{9, 1, 1, 13}
	for i, w := range want {
		if got := db.LastValue(i); got != w {
			t.Errorf("%s = %v, want %v", db.Archives()[i].CF, got, w)
		}
	}
}

func TestGapsAreNaN(t *testing.T) {
	db := MustNew(ArchiveSpec{Step: time.Minute, Rows: 10, CF: Average})
	db.Update(30*time.Second, 5)
	// Skip buckets 2 and 3 entirely.
	db.Update(3*time.Minute+30*time.Second, 7)
	db.FlushTo(4 * time.Minute)
	pts, _ := db.Fetch(0, 0, 4*time.Minute)
	if len(pts) != 4 {
		t.Fatalf("points = %d", len(pts))
	}
	if !math.IsNaN(pts[1].Value) || !math.IsNaN(pts[2].Value) {
		t.Fatalf("gap buckets not NaN: %v", pts)
	}
	if pts[3].Value != 7 {
		t.Fatalf("bucket4 = %v", pts[3])
	}
}

func TestRingWraparound(t *testing.T) {
	db := MustNew(ArchiveSpec{Step: time.Minute, Rows: 3, CF: Average})
	for i := 0; i < 10; i++ {
		db.Update(time.Duration(i)*time.Minute+time.Second, float64(i))
	}
	db.FlushTo(10 * time.Minute)
	pts, _ := db.Fetch(0, 0, 10*time.Minute)
	// Only the 3 newest buckets survive: values 7, 8, 9.
	if len(pts) != 3 {
		t.Fatalf("points = %v", pts)
	}
	for i, want := range []float64{7, 8, 9} {
		if pts[i].Value != want {
			t.Fatalf("wrapped points = %v", pts)
		}
	}
}

func TestMultiResolutionArchives(t *testing.T) {
	db := MustNew(
		ArchiveSpec{Step: time.Minute, Rows: 60, CF: Average},
		ArchiveSpec{Step: time.Hour, Rows: 24, CF: Average},
	)
	// Constant value 10 for 2 hours, sampled once a minute.
	for i := 0; i < 120; i++ {
		db.Update(time.Duration(i)*time.Minute+time.Second, 10)
	}
	db.FlushTo(2 * time.Hour)
	fine, _ := db.Fetch(0, time.Hour, 2*time.Hour)
	if len(fine) != 60 {
		t.Fatalf("fine archive points = %d", len(fine))
	}
	coarse, _ := db.Fetch(1, 0, 2*time.Hour)
	if len(coarse) != 2 || coarse[0].Value != 10 || coarse[1].Value != 10 {
		t.Fatalf("coarse archive = %v", coarse)
	}
}

func TestOutOfOrderRejected(t *testing.T) {
	db := MustNew(ArchiveSpec{Step: time.Minute, Rows: 5, CF: Average})
	db.Update(time.Minute, 1)
	if err := db.Update(time.Second, 2); err == nil {
		t.Fatal("out-of-order update accepted")
	}
}

func TestFetchBadArchive(t *testing.T) {
	db := MustNew(ArchiveSpec{Step: time.Minute, Rows: 5, CF: Average})
	if _, err := db.Fetch(1, 0, time.Hour); err == nil {
		t.Fatal("bad archive index accepted")
	}
}

func TestLastValueBeforeAnyFlush(t *testing.T) {
	db := MustNew(ArchiveSpec{Step: time.Minute, Rows: 5, CF: Average})
	if !math.IsNaN(db.LastValue(0)) {
		t.Fatal("LastValue before data should be NaN")
	}
}

func TestCFStrings(t *testing.T) {
	for cf, want := range map[CF]string{
		Average: "AVERAGE", Max: "MAX", Min: "MIN", Last: "LAST", Sum: "SUM",
	} {
		if cf.String() != want {
			t.Fatalf("%v", cf)
		}
	}
	if CF(42).String() == "" {
		t.Fatal("unknown CF must render")
	}
}

func TestArchivesAccessor(t *testing.T) {
	db := MustNew(
		ArchiveSpec{Step: time.Minute, Rows: 5, CF: Average},
		ArchiveSpec{Step: time.Hour, Rows: 24, CF: Max},
	)
	specs := db.Archives()
	if len(specs) != 2 || specs[1].CF != Max || specs[0].Step != time.Minute {
		t.Fatalf("archives = %+v", specs)
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew with no archives did not panic")
		}
	}()
	MustNew()
}

func TestFetchWindowEdges(t *testing.T) {
	db := MustNew(ArchiveSpec{Step: time.Minute, Rows: 10, CF: Average})
	for i := 0; i < 5; i++ {
		db.Update(time.Duration(i)*time.Minute+time.Second, float64(i))
	}
	db.FlushTo(5 * time.Minute)
	// (from, to] semantics: a bucket ending exactly at from is excluded,
	// one ending exactly at to is included.
	pts, err := db.Fetch(0, time.Minute, 3*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 || pts[0].Time != 2*time.Minute || pts[1].Time != 3*time.Minute {
		t.Fatalf("window points = %+v", pts)
	}
}

// referenceDB is the preallocated round-robin database the growing rings
// must reproduce: every archive's ring holds all Rows slots from creation,
// NaN-filled, as RRDtool lays out its fixed-size files.
type referenceDB struct {
	archives []*refArchive
	lastT    time.Duration
}

type refArchive struct {
	spec     ArchiveSpec
	ring     []float64
	head     int
	headEnd  time.Duration
	filled   int
	accSum   float64
	accMax   float64
	accMin   float64
	accLast  float64
	accCount int
}

func newReferenceDB(specs ...ArchiveSpec) *referenceDB {
	db := &referenceDB{}
	for _, s := range specs {
		ring := make([]float64, s.Rows)
		for i := range ring {
			ring[i] = math.NaN()
		}
		db.archives = append(db.archives, &refArchive{spec: s, ring: ring})
	}
	return db
}

func (db *referenceDB) Update(t time.Duration, v float64) bool {
	if t < db.lastT {
		return false
	}
	db.lastT = t
	for _, a := range db.archives {
		a.advanceTo(t)
		if a.accCount == 0 {
			a.accSum, a.accMax, a.accMin = v, v, v
		} else {
			a.accSum += v
			if v > a.accMax {
				a.accMax = v
			}
			if v < a.accMin {
				a.accMin = v
			}
		}
		a.accLast = v
		a.accCount++
	}
	return true
}

func (db *referenceDB) FlushTo(t time.Duration) {
	for _, a := range db.archives {
		a.advanceTo(t)
	}
}

func (a *refArchive) advanceTo(t time.Duration) {
	for t >= a.headEnd+a.spec.Step {
		v := math.NaN()
		if a.accCount > 0 {
			switch a.spec.CF {
			case Average:
				v = a.accSum / float64(a.accCount)
			case Max:
				v = a.accMax
			case Min:
				v = a.accMin
			case Last:
				v = a.accLast
			case Sum:
				v = a.accSum
			}
		}
		a.ring[a.head] = v
		a.head = (a.head + 1) % a.spec.Rows
		a.headEnd += a.spec.Step
		if a.filled < a.spec.Rows {
			a.filled++
		}
		a.accCount = 0
	}
}

func (db *referenceDB) Fetch(idx int, from, to time.Duration) []Point {
	a := db.archives[idx]
	var out []Point
	for i := a.filled; i >= 1; i-- {
		end := a.headEnd - time.Duration(i-1)*a.spec.Step
		if end <= from || end > to {
			continue
		}
		out = append(out, Point{Time: end, Value: a.ring[(a.head-i+a.spec.Rows*2)%a.spec.Rows]})
	}
	return out
}

func (db *referenceDB) LastValue(idx int) float64 {
	a := db.archives[idx]
	if a.filled == 0 {
		return math.NaN()
	}
	return a.ring[(a.head-1+a.spec.Rows)%a.spec.Rows]
}

// sameValue compares bit for bit, with any NaN equal to any NaN.
func sameValue(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// checkAgainstReference compares db with ref over the (from, to] window
// and every archive's last value, and checks that no ring outgrew its
// Rows or holds more rows than it has filled.
func checkAgainstReference(t testing.TB, db *Database, ref *referenceDB, from, to time.Duration) {
	t.Helper()
	for i, a := range db.archives {
		if cap(a.ring) > a.spec.Rows {
			t.Fatalf("archive %d: ring capacity %d past %d rows", i, cap(a.ring), a.spec.Rows)
		}
		if len(a.ring) != ref.archives[i].filled {
			t.Fatalf("archive %d: ring holds %d rows, reference filled %d", i, len(a.ring), ref.archives[i].filled)
		}
		if got, want := db.LastValue(i), ref.LastValue(i); !sameValue(got, want) {
			t.Fatalf("archive %d: LastValue = %v, reference %v", i, got, want)
		}
		got, err := db.Fetch(i, from, to)
		if err != nil {
			t.Fatal(err)
		}
		want := ref.Fetch(i, from, to)
		if len(got) != len(want) {
			t.Fatalf("archive %d: Fetch(%v, %v] = %d points, reference %d", i, from, to, len(got), len(want))
		}
		for k := range got {
			if got[k].Time != want[k].Time || !sameValue(got[k].Value, want[k].Value) {
				t.Fatalf("archive %d: Fetch(%v, %v)[%d] = %+v, reference %+v", i, from, to, k, got[k], want[k])
			}
		}
	}
}

// TestGrowingRingMatchesReference drives seeded update sequences through a
// growing database and the preallocated reference: every consolidation
// function, rings of 1, 5 and 288 rows, gaps longer than a whole ring, and
// FlushTo at random instants. After every step, random windows and the last
// values must agree bit for bit.
func TestGrowingRingMatchesReference(t *testing.T) {
	for _, rows := range []int{1, 5, 288} {
		for seed := int64(1); seed <= 4; seed++ {
			rng := rand.New(rand.NewSource(seed*1000 + int64(rows)))
			specs := []ArchiveSpec{
				{Step: time.Minute, Rows: rows, CF: Average},
				{Step: time.Minute, Rows: rows, CF: Max},
				{Step: 5 * time.Minute, Rows: rows, CF: Min},
				{Step: 5 * time.Minute, Rows: rows, CF: Last},
				{Step: time.Hour, Rows: rows, CF: Sum},
			}
			db, ref := MustNew(specs...), newReferenceDB(specs...)
			var now time.Duration
			for step := 0; step < 2000; step++ {
				switch r := rng.Intn(20); {
				case r == 0:
					// A gap longer than the ring at the coarsest step.
					now += time.Duration(rows+1+rng.Intn(3*rows+2)) * time.Hour
				case r < 4:
					at := now + time.Duration(rng.Int63n(int64(3*time.Hour)))
					db.FlushTo(at)
					ref.FlushTo(at)
				default:
					now += time.Duration(rng.Int63n(int64(4 * time.Minute)))
				}
				if rng.Intn(5) > 0 {
					v := math.Round(rng.NormFloat64()*1000) / 8
					if db.Update(now, v) != nil {
						t.Fatalf("update at %v rejected", now)
					}
					ref.Update(now, v)
				}
				from := now - time.Duration(rng.Int63n(int64(time.Duration(rows+2)*time.Hour)))
				to := from + time.Duration(rng.Int63n(int64(time.Duration(rows+2)*time.Hour)))
				checkAgainstReference(t, db, ref, from, to)
			}
		}
	}
}

// FuzzRing decodes its bytes into updates, FlushTo calls and Fetch windows
// over two small archives and checks the growing database against the
// preallocated reference after every operation. The first two bytes pick
// each archive's rows (1-40, so a ring regrows past its first 16 rows
// before it wraps) and consolidation function; each later pair is one
// operation: an update, a flush ahead of now, or a fetch window.
func FuzzRing(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 1, 2, 2, 3})
	f.Add([]byte{5, 29, 0, 0, 1, 255, 4, 7, 2, 200, 3, 40, 8, 1})
	f.Add([]byte{39, 77, 0, 9, 0, 9, 1, 250, 6, 3, 3, 255, 0, 0, 255, 255, 2, 255})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		specs := []ArchiveSpec{
			{Step: time.Minute, Rows: 1 + int(data[0])%40, CF: CF(data[0] / 40 % 5)},
			{Step: 3 * time.Minute, Rows: 1 + int(data[1])%40, CF: CF(data[1] / 40 % 5)},
		}
		db, ref := MustNew(specs...), newReferenceDB(specs...)
		var now time.Duration
		for ops := data[2:]; len(ops) >= 2; ops = ops[2:] {
			op, arg := ops[0], time.Duration(ops[1])
			from, to := time.Duration(-1), now+time.Hour
			switch op % 4 {
			case 0, 1:
				now += arg * 20 * time.Second
				v := float64(int(op>>2)-32) / 4
				if db.Update(now, v) != nil {
					t.Fatalf("update at %v rejected", now)
				}
				ref.Update(now, v)
			case 2:
				at := now + arg*20*time.Second
				db.FlushTo(at)
				ref.FlushTo(at)
			case 3:
				from = now - arg*30*time.Second
				to = from + time.Duration(op>>2)*time.Minute
			}
			checkAgainstReference(t, db, ref, from, to)
		}
	})
}
