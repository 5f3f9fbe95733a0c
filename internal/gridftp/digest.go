package gridftp

import (
	"sort"

	"grid3/internal/checkpoint"
)

// HashState folds the WAN state into h: every endpoint's service state,
// traffic accounting, and door occupancy (sorted-name order), every active
// transfer's flow record (ID order), the door queue in its FIFO order, and
// the queue accounting counters.
func (n *Network) HashState(h *checkpoint.Hasher) {
	names := make([]string, 0, len(n.endpoints))
	for name := range n.endpoints {
		names = append(names, name)
	}
	sort.Strings(names)
	h.Int(int64(len(names)))
	for _, name := range names {
		e := n.endpoints[name]
		h.String(e.Name)
		h.Bool(e.up)
		h.Float(e.CapacityBps)
		h.Int(int64(e.Doors))
		h.Int(e.BytesIn)
		h.Int(e.BytesOut)
		h.Int(int64(e.doorsBusy))
		h.Int(int64(e.queuedHere))
	}
	h.Int(n.nextID)
	h.Int(int64(len(n.active)))
	for _, t := range n.active {
		h.Int(t.ID)
		h.String(t.Src)
		h.String(t.Dst)
		h.Int(t.Bytes)
		h.String(t.Label)
		h.Dur(t.Started)
		h.Float(t.remaining)
		h.Float(t.rate)
		h.Dur(t.lastUpdate)
		h.Dur(t.queuedAt)
	}
	h.Int(int64(len(n.pending)))
	for _, t := range n.pending {
		h.Int(t.ID)
	}
	h.Int(n.queuedTotal)
	h.Int(int64(n.peakQueue))
	h.Int(n.dequeued)
	h.Dur(n.queueWaitSum)
}
