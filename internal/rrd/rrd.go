// Package rrd implements a round-robin database: bounded time-series
// storage with per-archive consolidation, the store behind the MonALISA
// central repository (§5.2: "storing it in a round robin-like database").
//
// A database owns one or more archives, each consolidating raw updates into
// buckets of a fixed step and keeping the most recent N rows in a ring.
// Unlike RRDtool, which preallocates every ring because it writes
// fixed-size files, a ring here holds only the rows filled so far: it grows
// as buckets close, up to N rows, and then wraps, so a short run pays for
// the history it recorded rather than for the history it could record.
// Typical Grid3 configuration: a 5-minute/24-hour archive for dashboards
// and a 1-hour/6-month archive for the retrospective usage plots
// (Figures 2-6 are all derived from such archives).
package rrd

import (
	"errors"
	"fmt"
	"math"
	"time"
)

// CF is a consolidation function.
type CF int

// Consolidation functions.
const (
	Average CF = iota
	Max
	Min
	Last
	Sum
)

func (c CF) String() string {
	switch c {
	case Average:
		return "AVERAGE"
	case Max:
		return "MAX"
	case Min:
		return "MIN"
	case Last:
		return "LAST"
	case Sum:
		return "SUM"
	}
	return fmt.Sprintf("CF(%d)", int(c))
}

// ErrBadArchive reports invalid archive parameters.
var ErrBadArchive = errors.New("rrd: invalid archive specification")

// ArchiveSpec describes one archive.
type ArchiveSpec struct {
	Step time.Duration
	Rows int
	CF   CF
}

// Point is one consolidated sample. Time is the *end* of its bucket.
// Value is NaN for buckets with no updates.
type Point struct {
	Time  time.Duration
	Value float64
}

// archive is the ring state for one ArchiveSpec.
type archive struct {
	spec ArchiveSpec
	// ring holds the filled rows (NaN = unknown). It grows by one row per
	// closed bucket until it holds spec.Rows, then wraps; while it grows,
	// head == len(ring), so the index arithmetic of a full ring reads it
	// unchanged.
	ring []float64
	// head indexes the slot the next closed bucket fills; the bucket that
	// ends at headEnd (the most recently completed one) sits just before it.
	head    int
	headEnd time.Duration

	// accumulator for the in-progress bucket [headEnd, headEnd+step).
	accSum   float64
	accMax   float64
	accMin   float64
	accLast  float64
	accCount int
}

// Database is a multi-archive RRD.
type Database struct {
	archives []*archive
	lastT    time.Duration
}

// New creates a database with the given archives. No ring is allocated
// until its first bucket closes.
func New(specs ...ArchiveSpec) (*Database, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("%w: no archives", ErrBadArchive)
	}
	db := &Database{}
	for _, s := range specs {
		if s.Step <= 0 || s.Rows <= 0 {
			return nil, fmt.Errorf("%w: step %v rows %d", ErrBadArchive, s.Step, s.Rows)
		}
		db.archives = append(db.archives, &archive{spec: s})
	}
	return db, nil
}

// MustNew creates a database or panics.
func MustNew(specs ...ArchiveSpec) *Database {
	db, err := New(specs...)
	if err != nil {
		panic(err)
	}
	return db
}

// Update records a sample at time t. Updates must be monotonically
// non-decreasing in time; out-of-order samples are rejected.
func (db *Database) Update(t time.Duration, v float64) error {
	if t < db.lastT {
		return fmt.Errorf("rrd: out-of-order update at %v (last %v)", t, db.lastT)
	}
	db.lastT = t
	for _, a := range db.archives {
		a.update(t, v)
	}
	return nil
}

func (a *archive) update(t time.Duration, v float64) {
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

// advanceTo flushes completed buckets so that the in-progress bucket
// contains time t.
func (a *archive) advanceTo(t time.Duration) {
	for t >= a.headEnd+a.spec.Step {
		a.flush()
	}
}

// flush closes the in-progress bucket into the ring.
func (a *archive) flush() {
	var v float64
	if a.accCount == 0 {
		v = math.NaN()
	} else {
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
	if len(a.ring) < a.spec.Rows {
		if len(a.ring) == cap(a.ring) {
			// Grow geometrically but never past Rows: append's own growth
			// would overshoot (4800 rows would get a 6144-row array).
			grown := make([]float64, len(a.ring), min(max(2*cap(a.ring), 16), a.spec.Rows))
			copy(grown, a.ring)
			a.ring = grown
		}
		a.ring = append(a.ring, v)
	} else {
		a.ring[a.head] = v
	}
	a.head = (a.head + 1) % a.spec.Rows
	a.headEnd += a.spec.Step
	a.accCount = 0
}

// FlushTo closes buckets up to (not including) the bucket containing t, so
// reads reflect all data before t. Typically called with "now".
func (db *Database) FlushTo(t time.Duration) {
	for _, a := range db.archives {
		a.advanceTo(t)
	}
}

// Archives returns the archive specs.
func (db *Database) Archives() []ArchiveSpec {
	out := make([]ArchiveSpec, len(db.archives))
	for i, a := range db.archives {
		out[i] = a.spec
	}
	return out
}

// Fetch returns consolidated points from archive idx whose bucket-end times
// fall in (from, to]. Points are oldest-first.
func (db *Database) Fetch(idx int, from, to time.Duration) ([]Point, error) {
	if idx < 0 || idx >= len(db.archives) {
		return nil, fmt.Errorf("rrd: archive %d out of range", idx)
	}
	a := db.archives[idx]
	var out []Point
	// Oldest available bucket ends at headEnd - len(ring)*step + step.
	for i := len(a.ring); i >= 1; i-- {
		end := a.headEnd - time.Duration(i-1)*a.spec.Step
		if end <= from || end > to {
			continue
		}
		pos := (a.head - i + a.spec.Rows*2) % a.spec.Rows
		out = append(out, Point{Time: end, Value: a.ring[pos]})
	}
	return out, nil
}

// LastValue returns the most recently consolidated value of archive idx,
// or NaN when nothing has been consolidated yet.
func (db *Database) LastValue(idx int) float64 {
	a := db.archives[idx]
	if len(a.ring) == 0 {
		return math.NaN()
	}
	pos := (a.head - 1 + a.spec.Rows) % a.spec.Rows
	return a.ring[pos]
}
