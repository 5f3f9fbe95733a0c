package gridftp

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"grid3/internal/obs"
	"grid3/internal/sim"
)

// newNet builds a network with zero setup delay for exact-arithmetic tests.
func newNet(t *testing.T) (*sim.Engine, *Network) {
	t.Helper()
	eng := sim.NewEngine(sim.Grid3Epoch)
	n := NewNetwork(eng)
	n.SetupDelay = 0
	return eng, n
}

const mb = 1 << 20

func TestSingleTransferRate(t *testing.T) {
	eng, n := newNet(t)
	n.AddEndpoint("bnl", 800) // 100 MB/s
	n.AddEndpoint("uc", 800)
	var got *Transfer
	n.Start("bnl", "uc", 1000*mb, "usatlas", func(tr *Transfer, err error) {
		if err != nil {
			t.Errorf("transfer failed: %v", err)
		}
		got = tr
	})
	eng.Run()
	if got == nil {
		t.Fatal("transfer never completed")
	}
	wantSecs := float64(1000*mb) / (800e6 / 8)
	if math.Abs(eng.Now().Seconds()-wantSecs) > 0.1 {
		t.Fatalf("completion at %.2fs, want ~%.2fs", eng.Now().Seconds(), wantSecs)
	}
	if n.Completed() != 1 || n.Failures() != 0 {
		t.Fatal("counters wrong")
	}
}

func TestFairSharingTwoFlowsOneLink(t *testing.T) {
	eng, n := newNet(t)
	n.AddEndpoint("fnal", 800)
	n.AddEndpoint("ucsd", 8000) // not the bottleneck
	n.AddEndpoint("ufl", 8000)
	var ends []time.Duration
	done := func(tr *Transfer, err error) {
		if err != nil {
			t.Errorf("err: %v", err)
		}
		ends = append(ends, tr.Ended)
	}
	// Both flows leave fnal: each should get half its 100 MB/s.
	n.Start("fnal", "ucsd", 1000*mb, "uscms", done)
	n.Start("fnal", "ufl", 1000*mb, "uscms", done)
	eng.Run()
	if len(ends) != 2 {
		t.Fatalf("completed %d", len(ends))
	}
	wantSecs := float64(1000*mb) / (800e6 / 8 / 2)
	for _, e := range ends {
		if math.Abs(e.Seconds()-wantSecs) > 0.5 {
			t.Fatalf("flow ended at %.2fs, want ~%.2fs (fair half share)", e.Seconds(), wantSecs)
		}
	}
}

func TestMaxMinBottleneckAllocation(t *testing.T) {
	eng, n := newNet(t)
	// slow has 80 Mb/s (10 MB/s); fast endpoints have 800 Mb/s.
	n.AddEndpoint("slow", 80)
	n.AddEndpoint("fast1", 800)
	n.AddEndpoint("fast2", 800)
	// Flow A: slow→fast1 (bottlenecked at 10 MB/s).
	// Flow B: fast1→fast2 (should get fast1's leftover 90 MB/s).
	var aEnd, bEnd time.Duration
	n.Start("slow", "fast1", 100*mb, "x", func(tr *Transfer, err error) { aEnd = tr.Ended })
	n.Start("fast1", "fast2", 900*mb, "x", func(tr *Transfer, err error) { bEnd = tr.Ended })
	eng.Run()
	// A: 100 MB at 10 MB/s = 10s. B: 900 MB at 90 MB/s = 10s.
	if math.Abs(aEnd.Seconds()-10) > 0.5 {
		t.Fatalf("bottlenecked flow ended at %.2fs, want ~10s", aEnd.Seconds())
	}
	if math.Abs(bEnd.Seconds()-10) > 0.5 {
		t.Fatalf("leftover flow ended at %.2fs, want ~10s (got max-min leftover)", bEnd.Seconds())
	}
}

func TestRateAdjustsWhenFlowFinishes(t *testing.T) {
	eng, n := newNet(t)
	n.AddEndpoint("a", 800) // 100 MB/s
	n.AddEndpoint("b", 8000)
	n.AddEndpoint("c", 8000)
	var longEnd time.Duration
	// Short flow shares a's link for its duration; long flow then speeds up.
	n.Start("a", "b", 100*mb, "x", nil)
	n.Start("a", "c", 1000*mb, "x", func(tr *Transfer, err error) { longEnd = tr.Ended })
	eng.Run()
	// Phase 1: both flows split a's capacity until the short one drains
	// (serving 2×100 MiB of combined traffic); the long flow's remaining
	// 900 MiB then gets the full link. Total bytes through a's link at
	// full utilization: 1100 MiB.
	cap := 800e6 / 8
	wantSecs := float64(1100*mb) / cap
	if math.Abs(longEnd.Seconds()-wantSecs) > 0.5 {
		t.Fatalf("long flow ended at %.2fs, want ~%.2fs", longEnd.Seconds(), wantSecs)
	}
}

func TestEndpointDownInterruptsTransfers(t *testing.T) {
	eng, n := newNet(t)
	n.AddEndpoint("a", 80)
	n.AddEndpoint("b", 80)
	n.AddEndpoint("c", 80)
	var gotErr error
	var survived bool
	n.Start("a", "b", 10000*mb, "x", func(tr *Transfer, err error) { gotErr = err })
	n.Start("c", "b", 10*mb, "x", func(tr *Transfer, err error) { survived = err == nil })
	eng.RunUntil(2 * time.Second)
	if err := n.SetEndpointUp("a", false); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if !errors.Is(gotErr, ErrInterrupted) {
		t.Fatalf("interrupted transfer err = %v", gotErr)
	}
	if !survived {
		t.Fatal("unrelated transfer was killed by a's failure")
	}
	if n.Failures() != 1 {
		t.Fatalf("failures = %d", n.Failures())
	}
	// New transfers to the dead endpoint are refused.
	if _, err := n.Start("a", "b", mb, "x", nil); !errors.Is(err, ErrEndpointDown) {
		t.Fatalf("start to down endpoint err = %v", err)
	}
	// Bring it back: transfers flow again.
	n.SetEndpointUp("a", true)
	ok := false
	n.Start("a", "b", mb, "x", func(tr *Transfer, err error) { ok = err == nil })
	eng.Run()
	if !ok {
		t.Fatal("transfer after recovery failed")
	}
}

func TestStartValidation(t *testing.T) {
	_, n := newNet(t)
	n.AddEndpoint("a", 80)
	n.AddEndpoint("b", 80)
	if _, err := n.Start("a", "b", 0, "x", nil); !errors.Is(err, ErrBadSize) {
		t.Fatalf("zero size err = %v", err)
	}
	if _, err := n.Start("a", "a", mb, "x", nil); !errors.Is(err, ErrSameEndpoint) {
		t.Fatalf("same endpoint err = %v", err)
	}
	if _, err := n.Start("a", "zz", mb, "x", nil); !errors.Is(err, ErrUnknownEndpoint) {
		t.Fatalf("unknown endpoint err = %v", err)
	}
	if _, err := n.Endpoint("zz"); !errors.Is(err, ErrUnknownEndpoint) {
		t.Fatalf("Endpoint lookup err = %v", err)
	}
}

func TestSetupDelayAppliesAndFailsIfEndpointDies(t *testing.T) {
	eng := sim.NewEngine(sim.Grid3Epoch)
	n := NewNetwork(eng)
	n.SetupDelay = 5 * time.Second
	n.AddEndpoint("a", 80000) // effectively instant data movement
	n.AddEndpoint("b", 80000)
	var end time.Duration
	n.Start("a", "b", 1, "x", func(tr *Transfer, err error) { end = tr.Ended })
	eng.Run()
	if end < 5*time.Second {
		t.Fatalf("transfer finished before setup delay: %v", end)
	}
	// Endpoint dies during setup.
	var setupErr error
	n.Start("a", "b", 1, "x", func(tr *Transfer, err error) { setupErr = err })
	n.SetEndpointUp("a", false)
	eng.Run()
	if setupErr == nil {
		t.Fatal("setup-phase death not reported")
	}
}

func TestAccountingByLabelAndEndpoint(t *testing.T) {
	eng, n := newNet(t)
	n.AddEndpoint("bnl", 800)
	n.AddEndpoint("uc", 800)
	n.AddEndpoint("iu", 800)
	n.Start("bnl", "uc", 100*mb, "usatlas", nil)
	n.Start("bnl", "iu", 50*mb, "ivdgl", nil)
	n.Start("uc", "bnl", 25*mb, "usatlas", nil)
	eng.Run()
	by := n.BytesByLabel()
	if by["usatlas"] != 125*mb || by["ivdgl"] != 50*mb {
		t.Fatalf("label accounting = %v", by)
	}
	bnl, _ := n.Endpoint("bnl")
	if bnl.BytesOut != 150*mb || bnl.BytesIn != 25*mb {
		t.Fatalf("bnl in %d out %d", bnl.BytesIn, bnl.BytesOut)
	}
	uc, _ := n.Endpoint("uc")
	if uc.BytesIn != 100*mb || uc.BytesOut != 25*mb {
		t.Fatalf("uc in %d out %d", uc.BytesIn, uc.BytesOut)
	}
}

// TestNetLoggerEvents: with Instruments set, the trace's NetLogger render
// carries a start record per transfer, an end record per completion and an
// error record, with its cause, per failure (§4.7).
func TestNetLoggerEvents(t *testing.T) {
	eng, n := newNet(t)
	o := obs.New(eng.Now)
	n.Ins = NewInstruments(o)
	n.AddEndpoint("a", 800)
	n.AddEndpoint("b", 800)
	n.AddEndpoint("c", 800)
	n.Start("a", "b", 10*mb, "x", nil)
	n.Start("a", "c", 100000*mb, "x", nil)
	eng.RunUntil(time.Second)
	n.SetEndpointUp("c", false)
	eng.Run()
	var sb strings.Builder
	if err := o.Tracer.Trace().WriteNetLogger(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for kind, want := range map[string]int{"start": 2, "end": 1, "error": 1} {
		if got := strings.Count(out, "NL.EVNT=gridftp.transfer."+kind+" "); got != want {
			t.Errorf("%s records = %d, want %d:\n%s", kind, got, want, out)
		}
	}
	if !strings.Contains(out, "HOST=a PROG=gridftp NL.EVNT=gridftp.transfer.error DEST=c") || !strings.Contains(out, "ERR=") {
		t.Fatalf("NetLogger output missing the error record:\n%s", out)
	}
}

func TestManyConcurrentFlowsConserveBytes(t *testing.T) {
	eng, n := newNet(t)
	for i := 0; i < 8; i++ {
		n.AddEndpoint(fmt.Sprintf("s%d", i), 100+float64(i)*50)
	}
	var totalDone int64
	const flows = 60
	for i := 0; i < flows; i++ {
		src := fmt.Sprintf("s%d", i%8)
		dst := fmt.Sprintf("s%d", (i+3)%8)
		size := int64((i + 1) * mb)
		n.Start(src, dst, size, "x", func(tr *Transfer, err error) {
			if err != nil {
				t.Errorf("flow failed: %v", err)
				return
			}
			totalDone += tr.Bytes
		})
	}
	eng.Run()
	var want int64
	for i := 0; i < flows; i++ {
		want += int64((i + 1) * mb)
	}
	if totalDone != want {
		t.Fatalf("bytes done = %d, want %d", totalDone, want)
	}
	if n.ActiveCount() != 0 {
		t.Fatalf("transfers still active: %d", n.ActiveCount())
	}
	// Conservation: per-endpoint in totals equal per-endpoint out totals
	// summed across the network.
	var in, out int64
	for i := 0; i < 8; i++ {
		e, _ := n.Endpoint(fmt.Sprintf("s%d", i))
		in += e.BytesIn
		out += e.BytesOut
	}
	if in != want || out != want {
		t.Fatalf("endpoint accounting in=%d out=%d want=%d", in, out, want)
	}
}

func TestAggregateThroughputMatchesCapacity(t *testing.T) {
	// A hub with 1000 flows through a 100 MB/s link moves ~100 MB/s total.
	eng, n := newNet(t)
	n.AddEndpoint("hub", 800)
	for i := 0; i < 10; i++ {
		n.AddEndpoint(fmt.Sprintf("leaf%d", i), 8000)
	}
	const each = 10 * mb
	for i := 0; i < 100; i++ {
		n.Start("hub", fmt.Sprintf("leaf%d", i%10), each, "x", nil)
	}
	eng.Run()
	wantSecs := float64(100*each) / (800e6 / 8)
	if math.Abs(eng.Now().Seconds()-wantSecs) > 1 {
		t.Fatalf("drain time %.2fs, want ~%.2fs", eng.Now().Seconds(), wantSecs)
	}
}

func BenchmarkNetworkChurn(b *testing.B) {
	eng := sim.NewEngine(sim.Grid3Epoch)
	n := NewNetwork(eng)
	n.SetupDelay = 0
	for i := 0; i < 27; i++ {
		n.AddEndpoint(fmt.Sprintf("site%d", i), 622)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		src := fmt.Sprintf("site%d", i%27)
		dst := fmt.Sprintf("site%d", (i+13)%27)
		n.Start(src, dst, 4<<30, "bench", nil)
		if i%64 == 63 {
			eng.Run()
		}
	}
	eng.Run()
}
