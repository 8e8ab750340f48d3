package main

import (
	"runtime/metrics"
	"sync"
	"syscall"
	"time"
)

// processCPU returns the user+system CPU time the process has used.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// rtSnap is a reading of the Go runtime's own counters.
type rtSnap struct {
	allocBytes uint64
	gcCycles   uint64
	gcCPU      float64 // seconds of CPU spent on GC
	totalCPU   float64 // seconds of CPU the runtime accounted for
}

var rtNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() rtSnap {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return rtSnap{
		allocBytes: s[0].Value.Uint64(),
		gcCycles:   s[1].Value.Uint64(),
		gcCPU:      s[2].Value.Float64(),
		totalCPU:   s[3].Value.Float64(),
	}
}

// rtDelta is what the runtime did between two readings.
type rtDelta struct {
	allocMiB, gcCycles, gcCPU, totalCPU float64
}

func (a rtSnap) to(b rtSnap) rtDelta {
	return rtDelta{
		allocMiB: float64(b.allocBytes-a.allocBytes) / (1 << 20),
		gcCycles: float64(b.gcCycles - a.gcCycles),
		gcCPU:    b.gcCPU - a.gcCPU,
		totalCPU: b.totalCPU - a.totalCPU,
	}
}

// heapSampler reads /gc/heap/live:bytes every 10 ms and keeps the peak
// since the last reset and the peak of each second. The runtime updates
// the value at the end of each GC cycle, so a peak is the largest heap a
// collection found live.
type heapSampler struct {
	mu      sync.Mutex
	peak    uint64    // since the last reset
	window  uint64    // peak of the current second
	windows []uint64  // peaks of the completed seconds since the last reset
	started time.Time // when the current second began
	stop    chan struct{}
	wg      sync.WaitGroup
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), started: time.Now()}
	h.sample()
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-tick.C:
				h.sample()
			}
		}
	}()
	return h
}

func (h *heapSampler) sample() {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	v := s[0].Value.Uint64()
	h.mu.Lock()
	defer h.mu.Unlock()
	if time.Since(h.started) >= time.Second {
		h.windows = append(h.windows, h.window)
		h.window, h.started = 0, time.Now()
	}
	h.peak, h.window = max(h.peak, v), max(h.window, v)
}

// peakMiB returns the peak since the last reset, in MiB, counting the
// current reading.
func (h *heapSampler) peakMiB() float64 {
	h.sample()
	h.mu.Lock()
	defer h.mu.Unlock()
	return float64(h.peak) / (1 << 20)
}

// reset starts new peaks from the current reading.
func (h *heapSampler) reset() {
	h.mu.Lock()
	h.peak, h.window, h.windows, h.started = 0, 0, nil, time.Now()
	h.mu.Unlock()
	h.sample()
}

// finish stops the sampler and returns, in MiB, the median of the
// per-second peaks since the last reset (the partial last second counts
// only when no second completed).
func (h *heapSampler) finish() (perSecond float64) {
	close(h.stop)
	h.wg.Wait()
	h.sample()
	h.mu.Lock()
	defer h.mu.Unlock()
	windows := h.windows
	if len(windows) == 0 {
		windows = []uint64{h.window}
	}
	mib := make([]float64, len(windows))
	for i, w := range windows {
		mib[i] = float64(w) / (1 << 20)
	}
	return median(mib)
}
