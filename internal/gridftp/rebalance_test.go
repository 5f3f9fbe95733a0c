package gridftp

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"

	"grid3/internal/sim"
)

// referenceRates recomputes the max–min fair rate of every transfer in
// flows from scratch, the way the rebalance did before it kept flows in ID
// order and ranked endpoints by name: collect flows and endpoints into
// maps, sort the flow IDs and the endpoint names, and scan for the
// bottleneck in name order with a strict <. It also counts the rounds in
// which another endpoint tied the bottleneck's share — the cases the name
// order decides.
func referenceRates(flows []*Transfer) (rates map[int64]float64, ties int) {
	byID := make(map[int64]*Transfer, len(flows))
	for _, t := range flows {
		byID[t.ID] = t
	}
	ids := make([]int64, 0, len(byID))
	for id := range byID {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })

	remCap := make(map[string]float64)
	count := make(map[string]int)
	for _, id := range ids {
		t := byID[id]
		for _, ep := range [2]*Endpoint{t.srcEP, t.dstEP} {
			if _, ok := remCap[ep.Name]; !ok {
				remCap[ep.Name] = ep.CapacityBps
			}
			count[ep.Name]++
		}
	}
	names := make([]string, 0, len(remCap))
	for name := range remCap {
		names = append(names, name)
	}
	sort.Strings(names)

	rates = make(map[int64]float64, len(ids))
	frozen := make(map[int64]bool, len(ids))
	for len(frozen) < len(ids) {
		bottleneck, best := "", math.Inf(1)
		for _, name := range names {
			if count[name] <= 0 {
				continue
			}
			if share := remCap[name] / float64(count[name]); share < best {
				best, bottleneck = share, name
			}
		}
		if bottleneck == "" {
			break
		}
		for _, name := range names {
			if name != bottleneck && count[name] > 0 && remCap[name]/float64(count[name]) == best {
				ties++
				break
			}
		}
		for _, id := range ids {
			t := byID[id]
			if frozen[id] || (t.Src != bottleneck && t.Dst != bottleneck) {
				continue
			}
			rates[id] = best
			frozen[id] = true
			remCap[t.Src] -= best
			remCap[t.Dst] -= best
			count[t.Src]--
			count[t.Dst]--
		}
	}
	return rates, ties
}

// rebalanceStats tallies what one seeded interleaving exercised.
type rebalanceStats struct {
	checks     int // engine states compared against the reference
	ties       int // filling rounds whose bottleneck share was tied
	outOfOrder int // activations behind a still-active transfer with a larger ID
}

// TestRebalanceMatchesReference drives seeded interleavings of starts,
// completions, late endpoint registrations, outages and restorations, and
// after every engine step with no filling pass pending compares each active
// transfer's rate bit for bit with referenceRates and checks that its finish
// event is pending at the time that rate implies. Capacities come from a
// small set so that share ties are common, and endpoints have 0–3 doors so
// that queued transfers activate out of ID order.
func TestRebalanceMatchesReference(t *testing.T) {
	var total rebalanceStats
	for seed := int64(1); seed <= 30; seed++ {
		st, err := driveRebalance(seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		total.checks += st.checks
		total.ties += st.ties
		total.outOfOrder += st.outOfOrder
	}
	t.Logf("%d states checked, %d tied rounds, %d out-of-order activations",
		total.checks, total.ties, total.outOfOrder)
	if total.ties == 0 {
		t.Error("no filling round had a share tie: the name-rank tie-break went unexercised")
	}
	if total.outOfOrder == 0 {
		t.Error("no transfer activated out of ID order: insertion into the active list went unexercised")
	}
}

// driveRebalance runs one seeded interleaving, returning what it exercised
// or the first divergence from the reference.
func driveRebalance(seed int64) (rebalanceStats, error) {
	rng := rand.New(rand.NewSource(seed))
	eng := sim.NewEngine(sim.Grid3Epoch)
	n := NewNetwork(eng)
	n.SetupDelay = time.Second // activation stamps Started > 0

	names := []string{"anl", "bnl", "bu", "caltech", "fnal", "iu", "ou", "pdsf", "uc", "ucsd", "ufl", "uwmad"}
	rng.Shuffle(len(names), func(i, j int) { names[i], names[j] = names[j], names[i] })
	mbps := []float64{100, 200, 400}
	added := 0
	add := func() {
		ep := n.AddEndpoint(names[added], mbps[rng.Intn(len(mbps))])
		ep.Doors = rng.Intn(4)
		added++
	}
	for added < 5 {
		add()
	}
	pick := func() string { return names[rng.Intn(added)] }

	var started []*Transfer
	ended := make(map[*Transfer]bool)
	var start func(src, dst string)
	start = func(src, dst string) {
		if src == dst {
			return
		}
		tr, err := n.Start(src, dst, int64(1+rng.Intn(200))*mb, "x", func(tr *Transfer, err error) {
			ended[tr] = true
			// Like a replica failover, a failed transfer sometimes
			// restarts from another source inside its callback.
			if err != nil && rng.Intn(2) == 0 {
				start(pick(), dst)
			}
		})
		if err == nil {
			started = append(started, tr)
		}
	}

	var st rebalanceStats
	seen := make(map[*Transfer]bool)
	check := func() error {
		if n.rebalancePending {
			return nil
		}
		// The model's active set: activated, not yet done, in ID order.
		var model []*Transfer
		maxSeen := int64(0)
		for _, tr := range started {
			if tr.Started > 0 && !ended[tr] {
				model = append(model, tr)
				if seen[tr] {
					maxSeen = max(maxSeen, tr.ID)
				}
			}
		}
		for _, tr := range model {
			if !seen[tr] {
				seen[tr] = true
				if tr.ID < maxSeen {
					st.outOfOrder++
				}
			}
		}
		if len(n.active) != len(model) {
			return fmt.Errorf("at %v: %d active transfers, model has %d", eng.Now(), len(n.active), len(model))
		}
		for i, tr := range model {
			if n.active[i] != tr {
				return fmt.Errorf("at %v: active[%d] is transfer %d, want %d (ID order)",
					eng.Now(), i, n.active[i].ID, tr.ID)
			}
		}
		ref, ties := referenceRates(model)
		st.ties += ties
		st.checks++
		for _, tr := range model {
			want := ref[tr.ID]
			if math.Float64bits(tr.newRate) != math.Float64bits(want) || !rateClose(tr.rate, want) {
				return fmt.Errorf("at %v: transfer %d %s→%s computed rate %v (kept %v), reference %v",
					eng.Now(), tr.ID, tr.Src, tr.Dst, tr.newRate, tr.rate, want)
			}
			if tr.rate <= 0 {
				if tr.finish.Pending() {
					return fmt.Errorf("at %v: starved transfer %d has a finish event", eng.Now(), tr.ID)
				}
				continue
			}
			at := tr.lastUpdate + time.Duration(tr.remaining/tr.rate*float64(time.Second)) + 1
			if d := tr.finish.Time() - at; !tr.finish.Pending() || d < -10 || d > 10 {
				return fmt.Errorf("at %v: transfer %d finish event pending=%v at %v, rate implies %v",
					eng.Now(), tr.ID, tr.finish.Pending(), tr.finish.Time(), at)
			}
		}
		return nil
	}

	for op := 0; op < 400; op++ {
		switch r := rng.Intn(20); {
		case r < 10:
			for j := rng.Intn(3); j >= 0 && len(started)-len(ended) < 24; j-- {
				start(pick(), pick())
			}
		case r == 10 && added < len(names):
			add()
		case r == 11:
			n.SetEndpointUp(pick(), false)
		case r < 14:
			n.SetEndpointUp(pick(), true)
		}
		if err := check(); err != nil {
			return st, err
		}
		for k := rng.Intn(3); k > 0 && eng.Step(); k-- {
			if err := check(); err != nil {
				return st, err
			}
		}
	}
	for _, name := range names[:added] {
		n.SetEndpointUp(name, true)
	}
	for eng.Step() {
		if err := check(); err != nil {
			return st, err
		}
	}
	if len(n.active) != 0 || n.QueueDepth() != 0 {
		return st, fmt.Errorf("drained with %d active, %d queued", len(n.active), n.QueueDepth())
	}
	return st, nil
}

// TestRebalancePassAllocatesNothing: a filling pass over 12 flows on 12
// endpoints allocates nothing, whether no rate changes or two do (each
// changed rate cancels and reschedules a finish event).
func TestRebalancePassAllocatesNothing(t *testing.T) {
	eng, n := newNet(t)
	const k = 12
	eps := make([]*Endpoint, k)
	for i := range eps {
		eps[i] = n.AddEndpoint(fmt.Sprintf("e%02d", i), 622)
	}
	flows := make([]*Transfer, k)
	for i := range flows {
		tr, err := n.Start(eps[i].Name, eps[(i+1)%k].Name, 1<<40, "x", nil)
		if err != nil {
			t.Fatal(err)
		}
		flows[i] = tr
	}
	eng.RunUntil(time.Second)
	if n.ActiveCount() != k {
		t.Fatalf("%d active transfers, want %d", n.ActiveCount(), k)
	}

	if allocs := testing.AllocsPerRun(100, n.rebalance); allocs != 0 {
		t.Errorf("pass with unchanged rates: %v allocs, want 0", allocs)
	}

	// Halving e00's capacity on every other pass moves the rates of the two
	// transfers through it, e11→e00 and e00→e01, and no others.
	full := eps[0].CapacityBps
	passes := 0
	toggle := func() {
		passes++
		eps[0].CapacityBps = full / float64(1+passes%2)
		n.rebalance()
	}
	before := make([]float64, k)
	for i, tr := range flows {
		before[i] = tr.Rate()
	}
	toggle()
	changed := 0
	for i, tr := range flows {
		if tr.Rate() != before[i] {
			changed++
		}
	}
	if changed != 2 {
		t.Fatalf("toggling e00 changed %d rates, want 2", changed)
	}
	// Warm up until the engine's lazily cancelled events have been
	// compacted and its queue and slot arrays have stopped growing.
	for i := 0; i < 200; i++ {
		toggle()
	}
	if allocs := testing.AllocsPerRun(100, toggle); allocs != 0 {
		t.Errorf("pass with two changed rates: %v allocs, want 0", allocs)
	}
}
