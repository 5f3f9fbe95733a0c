package rrd

// RingCaps reports each archive's ring capacity, so the external footprint
// test can check what a database holds.
func (db *Database) RingCaps() []int {
	caps := make([]int, len(db.archives))
	for i, a := range db.archives {
		caps[i] = cap(a.ring)
	}
	return caps
}
