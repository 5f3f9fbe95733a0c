package main

import (
	"math/rand"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// Host-speed calibration. The two-vCPU virtual machine this benchmark was
// built on changes speed within seconds: CPU-bound loops there swing by 2x
// between the 10th and 90th percentile of back-to-back timings, while a
// loop bound by memory latency swings by 1.17x, and CPU time moves with
// wall time, so no choice of run length makes raw times repeat. A fixed
// reference loop, half map updates over a small table (CPU-bound) and half
// a pointer chase through a table larger than the caches (memory-bound),
// like the simulator itself, is timed at intervals through the same run;
// every reported time is the measured one scaled by calibRef over the
// loop's mean time, the time the run would take at the host speed that
// gives calibRef.
const (
	// calibPeriod is how much measured work passes between samples; a
	// sample costs about 1.3% of it.
	calibPeriod = 20 * time.Millisecond
	// calibRef is the loop's time on the reference host when it is fast.
	calibRef   = 250 * time.Microsecond
	calibKeys  = 2048
	calibOps   = 10000
	chaseLen   = 1 << 23 // 32 MiB of int32
	chaseSteps = 700
)

var (
	chaseOnce sync.Once
	chase     []int32
	chaseErr  error
)

// chaseTable returns a single random cycle through chaseLen slots, mapped
// outside the Go heap so it neither counts in the heap metrics nor adds
// work for the collector.
func chaseTable() ([]int32, error) {
	chaseOnce.Do(func() {
		mem, err := syscall.Mmap(-1, 0, chaseLen*4, syscall.PROT_READ|syscall.PROT_WRITE,
			syscall.MAP_ANON|syscall.MAP_PRIVATE)
		if err != nil {
			chaseErr = err
			return
		}
		t := unsafe.Slice((*int32)(unsafe.Pointer(&mem[0])), chaseLen)
		for i := range t {
			t[i] = int32(i)
		}
		rng := rand.New(rand.NewSource(1))
		for i := len(t) - 1; i > 0; i-- { // Sattolo: one cycle through every slot
			j := rng.Intn(i)
			t[i], t[j] = t[j], t[i]
		}
		chase = t
	})
	return chase, chaseErr
}

// hostSpeed samples the reference loop. Its methods are safe for one
// sampling goroutine and one reader.
type hostSpeed struct {
	keys  map[int]int
	chase []int32
	pos   int32
	owed  time.Duration

	mu    sync.Mutex
	total time.Duration
	n     int
}

func newHostSpeed() (*hostSpeed, error) {
	t, err := chaseTable()
	if err != nil {
		return nil, err
	}
	return &hostSpeed{keys: make(map[int]int, calibKeys), chase: t}, nil
}

// sample times one pass of the reference loop, which neither allocates nor
// waits for the collector, and returns how long it took.
func (h *hostSpeed) sample() time.Duration {
	t := time.Now()
	clear(h.keys)
	for i := range calibOps {
		h.keys[i%calibKeys] += i
	}
	for range chaseSteps {
		h.pos = h.chase[h.pos]
	}
	d := time.Since(t)
	h.mu.Lock()
	h.total += d
	h.n++
	h.mu.Unlock()
	return d
}

// worked records d of measured work and takes one sample per calibPeriod
// of it; it returns the time the samples took, to subtract from the span
// they interrupted.
func (h *hostSpeed) worked(d time.Duration) time.Duration {
	var spent time.Duration
	h.owed += d
	for h.owed >= calibPeriod {
		spent += h.sample()
		h.owed -= calibPeriod
	}
	return spent
}

// every samples once per calibPeriod until stop closes, for work that runs
// on other goroutines.
func (h *hostSpeed) every(stop <-chan struct{}, done chan<- struct{}) {
	tick := time.NewTicker(calibPeriod)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			close(done)
			return
		case <-tick.C:
			h.sample()
		}
	}
}

// factor is calibRef over the loop's mean time so far: above 1 on a host
// faster than the reference, below on a slower one.
func (h *hostSpeed) factor() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.n == 0 {
		return 1
	}
	return float64(calibRef) * float64(h.n) / float64(h.total)
}

// seconds converts a measured duration to reference seconds.
func (h *hostSpeed) seconds(d time.Duration) float64 { return d.Seconds() * h.factor() }

// ms converts a measured duration to reference milliseconds.
func (h *hostSpeed) ms(d time.Duration) float64 { return ms(d) * h.factor() }
