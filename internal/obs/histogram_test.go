package obs

import (
	"math"
	"sync"
	"testing"
	"time"
)

// TestHistogramBucketBoundaries pins the le-inclusive bucketing contract:
// a value exactly on an upper bound lands in that bucket, one epsilon
// above lands in the next, and values beyond the last bound land in +Inf.
func TestHistogramBucketBoundaries(t *testing.T) {
	h := newHistogram([]float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.1} { // both <= 0.1
		h.Observe(v)
	}
	h.Observe(0.100001)   // first bucket > 0.1 is le=1
	h.Observe(10)         // exactly the last bound
	h.Observe(10.5)       // beyond: +Inf
	h.Observe(math.NaN()) // dropped

	s := h.Snapshot()
	want := []int64{2, 1, 1, 1}
	for i, w := range want {
		if s.Counts[i] != w {
			t.Fatalf("bucket %d: got %d want %d (counts %v)", i, s.Counts[i], w, s.Counts)
		}
	}
	if s.Count != 5 {
		t.Fatalf("count = %d, want 5", s.Count)
	}
	wantSum := 0.05 + 0.1 + 0.100001 + 10 + 10.5
	if math.Abs(s.Sum-wantSum) > 1e-9 {
		t.Fatalf("sum = %g, want %g", s.Sum, wantSum)
	}
}

// TestHistogramConcurrentObserve hammers one histogram from many
// goroutines; under -race this doubles as the data-race check, and the
// final snapshot must account for every observation exactly once.
func TestHistogramConcurrentObserve(t *testing.T) {
	h := newHistogram(DefaultLatencyBuckets)
	const workers, perWorker = 8, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				h.Observe(float64(w*perWorker+i) * 1e-5)
			}
		}(w)
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Count != workers*perWorker {
		t.Fatalf("count = %d, want %d", s.Count, workers*perWorker)
	}
	var total int64
	for _, c := range s.Counts {
		total += c
	}
	if total != s.Count {
		t.Fatalf("bucket sum %d != count %d", total, s.Count)
	}
	n := float64(workers * perWorker)
	wantSum := 1e-5 * n * (n - 1) / 2
	if math.Abs(s.Sum-wantSum)/wantSum > 1e-9 {
		t.Fatalf("sum = %g, want %g", s.Sum, wantSum)
	}
}

func TestExpBuckets(t *testing.T) {
	b := ExpBuckets(0.5, 2, 4)
	want := []float64{0.5, 1, 2, 4}
	for i := range want {
		if b[i] != want[i] {
			t.Fatalf("bucket %d = %g, want %g", i, b[i], want[i])
		}
	}
	// The shared layouts must satisfy newHistogram's ascending check.
	newHistogram(DefaultLatencyBuckets)
	newHistogram(FsyncBuckets)
	newHistogram(LogErrorBuckets)
}

func TestHistogramObserveDuration(t *testing.T) {
	h := newHistogram([]float64{0.001, 1})
	h.ObserveDuration(500 * time.Microsecond)
	h.ObserveSince(time.Now().Add(-10 * time.Millisecond))
	s := h.Snapshot()
	if s.Counts[0] != 1 || s.Counts[1] != 1 {
		t.Fatalf("counts = %v", s.Counts)
	}
}
