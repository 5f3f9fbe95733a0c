package sim

import (
	"fmt"
	"sync"
	"time"
)

// ShardStats accumulates an EvalPool's execution accounting.
type ShardStats struct {
	// Windows is the number of fork-join rounds (Map calls that fanned
	// out to the workers).
	Windows uint64
	// BusyNs is the summed wall-clock time the workers spent running
	// chunks (the total work).
	BusyNs int64
	// CriticalNs is the summed per-round maximum worker time — the
	// critical path a perfectly parallel execution cannot beat.
	CriticalNs int64
}

// Speedup returns the work-parallelism of the run: total chunk work divided
// by its critical path. It is the wall-clock speedup the parallel run
// converges to once GOMAXPROCS covers the worker count; on fewer cores the
// ratio still measures how evenly the rounds balanced.
func (s ShardStats) Speedup() float64 {
	if s.CriticalNs <= 0 {
		return 1
	}
	return float64(s.BusyNs) / float64(s.CriticalNs)
}

// EvalPool is a deterministic fork-join helper for the engine's pure
// evaluation phases. The single simulation goroutine calls Map to fan a
// read-only computation out over N chunks — one per region shard — and
// blocks until every chunk finishes; all mutation stays in the caller, so
// the reduction it performs afterwards sees results in chunk order and the
// outcome is independent of which worker ran first. This is how -shards
// parallelizes work whose *inputs* partition by region but whose *commit*
// must stay serial (Condor-G matchmaking: the candidate scan is pure per
// region, the launch that follows mutates shared hub state).
//
// `parallel_speedup` is the pool's total chunk work divided by its
// critical path (ShardStats.Speedup).
type EvalPool struct {
	workers []chan func()
	wg      sync.WaitGroup
	// elapsed[w] is written only by worker w during a Map call and read by
	// the caller after the barrier, so it needs no lock.
	elapsed []int64
	stats   ShardStats
	closed  bool
}

// NewEvalPool starts workers persistent worker goroutines.
func NewEvalPool(workers int) *EvalPool {
	if workers < 1 {
		panic(fmt.Sprintf("sim: eval pool worker count %d < 1", workers))
	}
	p := &EvalPool{elapsed: make([]int64, workers)}
	for i := 0; i < workers; i++ {
		ch := make(chan func())
		p.workers = append(p.workers, ch)
		go func() {
			for fn := range ch {
				fn()
			}
		}()
	}
	return p
}

// Workers returns the worker count.
func (p *EvalPool) Workers() int { return len(p.workers) }

// Map runs f(0..n-1) across the workers and returns when all calls have
// finished. f must only read shared state, or mutate state no other chunk
// touches (region-partitioned caches); the caller resumes with a full
// happens-before edge from every call. Chunk i runs on worker i%Workers, so
// with n == Workers each chunk owns a worker. A nil pool, a closed pool, or
// n < 2 degrades to a plain serial loop — the outcome is identical either
// way, only the wall-clock cost changes.
func (p *EvalPool) Map(n int, f func(chunk int)) {
	if p == nil || p.closed || n < 2 {
		for i := 0; i < n; i++ {
			f(i)
		}
		return
	}
	for i := range p.elapsed {
		p.elapsed[i] = 0
	}
	p.wg.Add(n)
	for i := 0; i < n; i++ {
		i := i
		w := i % len(p.workers)
		p.workers[w] <- func() {
			t0 := time.Now()
			f(i)
			p.elapsed[w] += time.Since(t0).Nanoseconds()
			p.wg.Done()
		}
	}
	p.wg.Wait()
	var maxNs int64
	for _, d := range p.elapsed {
		p.stats.BusyNs += d
		if d > maxNs {
			maxNs = d
		}
	}
	p.stats.Windows++
	p.stats.CriticalNs += maxNs
}

// Stats returns the accounting accumulated across Map calls.
func (p *EvalPool) Stats() ShardStats {
	if p == nil {
		return ShardStats{}
	}
	return p.stats
}

// Close stops the workers. The pool is unusable afterwards.
func (p *EvalPool) Close() {
	if p == nil || p.closed {
		return
	}
	p.closed = true
	for _, ch := range p.workers {
		close(ch)
	}
}
