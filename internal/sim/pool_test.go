package sim

import (
	"testing"
	"time"
)

func TestEvalPoolMap(t *testing.T) {
	p := NewEvalPool(4)
	defer p.Close()
	out := make([]int, 16) // each chunk writes only its own slot
	p.Map(len(out), func(i int) { out[i] = i * i })
	for i, v := range out {
		if v != i*i {
			t.Fatalf("chunk %d wrote %d, want %d", i, v, i*i)
		}
	}
	st := p.Stats()
	if st.Windows != 1 {
		t.Fatalf("stats windows %d, want 1", st.Windows)
	}
	if st.BusyNs < st.CriticalNs {
		t.Fatalf("busy %dns < critical %dns", st.BusyNs, st.CriticalNs)
	}
}

func TestEvalPoolDeterministicReduction(t *testing.T) {
	// The canonical use: chunks compute independent partial results, the
	// caller reduces them in chunk order. Repeated calls must agree exactly.
	p := NewEvalPool(3)
	defer p.Close()
	run := func() float64 {
		parts := make([]float64, 3)
		p.Map(3, func(c int) {
			v := 0.0
			for i := 0; i < 1000; i++ {
				v += float64(c*1000+i) * 1e-3
			}
			parts[c] = v
		})
		total := 0.0
		for _, v := range parts { // fixed chunk order
			total += v
		}
		return total
	}
	a := run()
	for i := 0; i < 10; i++ {
		if b := run(); b != a {
			t.Fatalf("run %d reduced to %v, first run %v", i, b, a)
		}
	}
}

func TestEvalPoolSerialFallback(t *testing.T) {
	var p *EvalPool // nil pool: plain loop
	n := 0
	p.Map(5, func(i int) { n += i })
	if n != 10 {
		t.Fatalf("nil-pool Map summed %d, want 10", n)
	}
	if st := p.Stats(); st != (ShardStats{}) {
		t.Fatalf("nil-pool stats %+v, want zero", st)
	}
	q := NewEvalPool(2)
	defer q.Close()
	n = 0
	q.Map(1, func(i int) { n++ }) // n<2 runs inline on the caller
	if n != 1 {
		t.Fatal("single-chunk Map did not run")
	}
	if st := q.Stats(); st.Windows != 0 {
		t.Fatalf("inline Map accounted a window: %+v", st)
	}
}

func TestEvalPoolCriticalPath(t *testing.T) {
	p := NewEvalPool(2)
	defer p.Close()
	p.Map(2, func(i int) {
		if i == 1 {
			time.Sleep(5 * time.Millisecond)
		}
	})
	st := p.Stats()
	if st.CriticalNs < (4 * time.Millisecond).Nanoseconds() {
		t.Fatalf("critical path %dns shorter than the slowest chunk", st.CriticalNs)
	}
	if st.BusyNs < st.CriticalNs {
		t.Fatalf("busy %dns < critical %dns", st.BusyNs, st.CriticalNs)
	}
}

func TestShardStatsSpeedup(t *testing.T) {
	var s ShardStats
	if sp := s.Speedup(); sp != 1 {
		t.Fatalf("zero stats speedup %v, want 1", sp)
	}
	s = ShardStats{BusyNs: 4000, CriticalNs: 1000}
	if sp := s.Speedup(); sp != 4 {
		t.Fatalf("speedup %v, want 4", sp)
	}
}
