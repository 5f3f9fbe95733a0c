package gridftp

import (
	"errors"
	"fmt"
	"math"
	"testing"
	"time"
)

func TestDoorsSerializeTransfersFIFO(t *testing.T) {
	eng, n := newNet(t)
	hub := n.AddEndpoint("hub", 800) // 100 MB/s
	hub.Doors = 1
	for i := 0; i < 3; i++ {
		n.AddEndpoint(fmt.Sprintf("leaf%d", i), 8000)
	}
	var order []string
	for i := 0; i < 3; i++ {
		n.Start("hub", fmt.Sprintf("leaf%d", i), 100*mb, "x", func(tr *Transfer, err error) {
			if err != nil {
				t.Errorf("transfer failed: %v", err)
				return
			}
			order = append(order, tr.Dst)
		})
	}
	// One door: the first transfer holds it, the other two wait.
	if hub.ActiveFlows() != 1 || hub.QueuedFlows() != 2 {
		t.Fatalf("doors busy %d queued %d, want 1/2", hub.ActiveFlows(), hub.QueuedFlows())
	}
	eng.Run()
	if len(order) != 3 || order[0] != "leaf0" || order[1] != "leaf1" || order[2] != "leaf2" {
		t.Fatalf("completion order = %v, want FIFO admission", order)
	}
	// Serialized: each gets the full link in turn.
	wantSecs := 3 * float64(100*mb) / (800e6 / 8)
	if math.Abs(eng.Now().Seconds()-wantSecs) > 0.5 {
		t.Fatalf("drained at %.2fs, want ~%.2fs (serialized)", eng.Now().Seconds(), wantSecs)
	}
	if n.QueuedTotal() != 2 || n.PeakQueueDepth() != 2 || n.QueueDepth() != 0 {
		t.Fatalf("queue stats: total %d peak %d depth %d", n.QueuedTotal(), n.PeakQueueDepth(), n.QueueDepth())
	}
	if n.MeanQueueWait() <= 0 {
		t.Fatal("mean queue wait not recorded")
	}
	if hub.ActiveFlows() != 0 || hub.QueuedFlows() != 0 {
		t.Fatalf("doors leaked: busy %d queued %d", hub.ActiveFlows(), hub.QueuedFlows())
	}
}

func TestDoorsAdmissionIsWorkConserving(t *testing.T) {
	eng, n := newNet(t)
	a := n.AddEndpoint("a", 800)
	a.Doors = 1
	c := n.AddEndpoint("c", 800)
	c.Doors = 1
	n.AddEndpoint("b", 8000)
	n.AddEndpoint("d", 8000)
	n.Start("a", "b", 1000*mb, "x", nil) // holds a's door ~10s
	n.Start("c", "d", 100*mb, "x", nil)  // holds c's door ~1s
	n.Start("a", "d", 100*mb, "x", nil)  // queue head, blocked on a
	var late time.Duration
	n.Start("c", "b", 100*mb, "x", func(tr *Transfer, err error) {
		if err != nil {
			t.Errorf("err: %v", err)
		}
		late = tr.Ended
	})
	eng.Run()
	// c→b sits behind the blocked a→d in the FIFO but contends for a
	// different door; it must ride as soon as c frees, not wait for a.
	if late.Seconds() > 3 {
		t.Fatalf("blocked queue head stalled an unrelated pair: c→b ended at %v", late)
	}
}

func TestZeroDoorsKeepsUnboundedWAN(t *testing.T) {
	eng, n := newNet(t)
	n.AddEndpoint("hub", 800)
	for i := 0; i < 10; i++ {
		n.AddEndpoint(fmt.Sprintf("leaf%d", i), 8000)
	}
	for i := 0; i < 10; i++ {
		n.Start("hub", fmt.Sprintf("leaf%d", i), 10*mb, "x", nil)
	}
	eng.Run()
	if n.Completed() != 10 {
		t.Fatalf("completed = %d", n.Completed())
	}
	if n.QueuedTotal() != 0 || n.PeakQueueDepth() != 0 {
		t.Fatalf("unbounded endpoints queued: total %d peak %d", n.QueuedTotal(), n.PeakQueueDepth())
	}
}

func TestQueuedTransfersFailWhenEndpointDies(t *testing.T) {
	eng, n := newNet(t)
	hub := n.AddEndpoint("hub", 800)
	hub.Doors = 1
	n.AddEndpoint("b", 8000)
	n.AddEndpoint("c", 8000)
	var activeErr, queuedErr error
	n.Start("hub", "b", 10000*mb, "x", func(tr *Transfer, err error) { activeErr = err })
	n.Start("hub", "c", mb, "x", func(tr *Transfer, err error) { queuedErr = err })
	eng.RunUntil(time.Second)
	if err := n.SetEndpointUp("hub", false); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if !errors.Is(queuedErr, ErrEndpointDown) {
		t.Fatalf("queued transfer err = %v", queuedErr)
	}
	if !errors.Is(activeErr, ErrInterrupted) {
		t.Fatalf("active transfer err = %v", activeErr)
	}
	if n.QueueDepth() != 0 || hub.QueuedFlows() != 0 || hub.ActiveFlows() != 0 {
		t.Fatalf("state after failure: depth %d queued %d busy %d",
			n.QueueDepth(), hub.QueuedFlows(), hub.ActiveFlows())
	}
	// Doors were not corrupted: after recovery the endpoint serves again.
	n.SetEndpointUp("hub", true)
	ok := false
	n.Start("hub", "b", mb, "x", func(tr *Transfer, err error) { ok = err == nil })
	eng.Run()
	if !ok {
		t.Fatal("transfer after recovery failed")
	}
}

// A failure callback that queues a new transfer while an outage is failing
// the door queue (workflow replica failover restarting from another source)
// must not lose it: the restart is admitted and completes, and no queued
// count is left raised on its endpoints.
func TestOutageKeepsTransferQueuedByFailureCallback(t *testing.T) {
	eng, n := newNet(t)
	b := n.AddEndpoint("b", 800)
	b.Doors = 1
	n.AddEndpoint("a", 8000)
	c := n.AddEndpoint("c", 8000)
	d := n.AddEndpoint("d", 8000)
	n.Start("a", "b", 100*mb, "x", nil) // holds b's only door
	restarted := false
	var restartErr error
	n.Start("c", "b", 100*mb, "x", func(_ *Transfer, err error) {
		if err == nil {
			t.Error("queued c→b transfer completed although c went down")
			return
		}
		if _, err := n.Start("d", "b", 100*mb, "x", func(_ *Transfer, err error) {
			restarted, restartErr = true, err
		}); err != nil {
			t.Errorf("restart from d: %v", err)
		}
	})
	if err := n.SetEndpointUp("c", false); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if !restarted || restartErr != nil {
		t.Fatalf("restarted d→b transfer: done %v, err %v", restarted, restartErr)
	}
	if n.QueueDepth() != 0 || b.QueuedFlows() != 0 || c.QueuedFlows() != 0 || d.QueuedFlows() != 0 {
		t.Fatalf("queue left behind: depth %d, queued at b %d c %d d %d",
			n.QueueDepth(), b.QueuedFlows(), c.QueuedFlows(), d.QueuedFlows())
	}
	if n.Completed() != 2 || n.Failures() != 1 {
		t.Fatalf("completed %d failed %d, want 2 and 1", n.Completed(), n.Failures())
	}
}

// Regression guard for the data-plane accounting invariant: an interrupted
// transfer moves no bytes into BytesIn/BytesOut or the per-label totals —
// volume accrues only at completion, so a crash mid-flight cannot inflate
// the Figure 5 numbers.
func TestInterruptedTransferLeavesAccountingClean(t *testing.T) {
	eng, n := newNet(t)
	n.AddEndpoint("a", 800)
	n.AddEndpoint("b", 800)
	n.AddEndpoint("c", 800)
	var failed error
	n.Start("a", "b", 10000*mb, "usatlas", func(tr *Transfer, err error) { failed = err })
	eng.RunUntil(5 * time.Second) // mid-flight, bytes in motion
	n.SetEndpointUp("a", false)
	eng.Run()
	if failed == nil {
		t.Fatal("interruption not reported")
	}
	a, _ := n.Endpoint("a")
	b, _ := n.Endpoint("b")
	if a.BytesOut != 0 || b.BytesIn != 0 {
		t.Fatalf("interrupted transfer corrupted accounting: a.out=%d b.in=%d", a.BytesOut, b.BytesIn)
	}
	if by := n.BytesByLabel(); len(by) != 0 {
		t.Fatalf("label totals after interruption: %v", by)
	}
	// A subsequent completed transfer adds exactly its own volume.
	n.Start("c", "b", 100*mb, "usatlas", nil)
	eng.Run()
	if b.BytesIn != 100*mb || n.BytesByLabel()["usatlas"] != 100*mb {
		t.Fatalf("post-recovery accounting: b.in=%d label=%d", b.BytesIn, n.BytesByLabel()["usatlas"])
	}
}
