package kplex

import (
	"context"
	"runtime"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/sink"
)

// collectAll is the EnumerateAll ground truth: a sequential run whose
// OnPlex appends every plex.
func collectAll(t *testing.T, g *graph.Graph, k, q int) [][]int {
	t.Helper()
	var out [][]int
	opts := NewOptions(k, q)
	opts.OnPlex = func(p []int) { out = append(out, append([]int(nil), p...)) }
	if _, err := Run(context.Background(), g, opts); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestStreamMatchesEnumerateAll is the differential test for the streaming
// path: across both parallel schedulers (plus the pure sequential path),
// RunStream must yield exactly the plex set of the callback-based
// enumeration — same sets, same multiplicity, order free.
func TestStreamMatchesEnumerateAll(t *testing.T) {
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"planted", gen.Planted(gen.PlantedConfig{
			N: 120, BackgroundP: 0.02, Communities: 4, CommSize: 12,
			DropPerV: 1, Overlap: 2, Seed: 41,
		})},
		{"chunglu", gen.ChungLu(200, 12, 2.3, 46)},
	}
	schedulers := []struct {
		name    string
		threads int
		sched   SchedulerStyle
	}{
		{"sequential", 1, SchedulerStages},
		{"stages", 4, SchedulerStages},
		{"steal", 4, SchedulerSteal},
	}
	const k, q = 2, 6
	for _, tg := range graphs {
		want := collectAll(t, tg.g, k, q)
		for _, sc := range schedulers {
			t.Run(tg.name+"/"+sc.name, func(t *testing.T) {
				opts := NewOptions(k, q)
				opts.Threads = sc.threads
				opts.Scheduler = sc.sched
				if sc.threads > 1 {
					opts.TaskTimeout = 50 * time.Microsecond // exercise splitting
				}
				opts.StreamBuffer = 8 // small: force worker backpressure
				h, err := RunStream(context.Background(), tg.g, opts)
				if err != nil {
					t.Fatal(err)
				}
				var got [][]int
				for p := range h.C() {
					got = append(got, p)
				}
				res, err := h.Wait()
				if err != nil {
					t.Fatal(err)
				}
				if int64(len(got)) != res.Count {
					t.Errorf("streamed %d plexes, Result.Count=%d", len(got), res.Count)
				}
				if !sink.Equal(got, want) {
					t.Errorf("stream yielded %d plexes, EnumerateAll %d; sets differ",
						len(got), len(want))
				}
			})
		}
	}
}

// waitGoroutines polls until the goroutine count drops back to within
// slack of base, failing after a deadline. The retry loop absorbs runtime
// bookkeeping goroutines that exit asynchronously.
func waitGoroutines(t *testing.T, base, slack int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		n := runtime.NumGoroutine()
		if n <= base+slack {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutine leak: %d goroutines, baseline %d (+%d slack)\n%s",
				n, base, slack, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestStreamCancelMidStream abandons a stream after a handful of results:
// the channel must close promptly, Wait must report the context error, and
// no engine goroutine may survive — with every scheduler.
func TestStreamCancelMidStream(t *testing.T) {
	g := gen.ChungLu(200, 12, 2.3, 46) // 6683 plexes at k=3 q=8: plenty to abandon
	for _, sc := range []struct {
		name    string
		threads int
		sched   SchedulerStyle
	}{
		{"sequential", 1, SchedulerStages},
		{"stages", 4, SchedulerStages},
		{"steal", 4, SchedulerSteal},
	} {
		t.Run(sc.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			ctx, cancel := context.WithCancel(context.Background())
			opts := NewOptions(3, 8)
			opts.Threads = sc.threads
			opts.Scheduler = sc.sched
			opts.StreamBuffer = 2 // keep workers blocked on the channel
			h, err := RunStream(ctx, g, opts)
			if err != nil {
				t.Fatal(err)
			}
			got := 0
			for range h.C() {
				got++
				if got == 10 {
					cancel()
					break
				}
			}
			if got < 10 {
				t.Fatalf("stream closed after %d plexes, wanted at least 10", got)
			}
			// Stop reading entirely: the engine must still unwind.
			if _, err := h.Wait(); err == nil {
				t.Error("cancelled stream reported a nil run error")
			}
			cancel()
			waitGoroutines(t, base, 2)
			// The channel must be closed (drain whatever was buffered).
			deadline := time.After(2 * time.Second)
			for {
				select {
				case _, ok := <-h.C():
					if !ok {
						return
					}
				case <-deadline:
					t.Fatal("channel not closed after cancellation")
				}
			}
		})
	}
}

// TestStreamPreCancelled starts a stream under an already-dead context:
// no plex may be delivered and the channel must close immediately.
func TestStreamPreCancelled(t *testing.T) {
	g := gen.GNP(70, 0.22, 44)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	h, err := RunStream(ctx, g, NewOptions(2, 6))
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for range h.C() {
		n++
	}
	if n != 0 {
		t.Errorf("pre-cancelled stream delivered %d plexes", n)
	}
	if _, err := h.Wait(); err != context.Canceled {
		t.Errorf("Wait error = %v, want context.Canceled", err)
	}
}

// TestStreamValidation: option errors are synchronous, and OnPlex is
// rejected because the streaming path owns it.
func TestStreamValidation(t *testing.T) {
	g := gen.GNP(20, 0.2, 1)
	if _, err := RunStream(context.Background(), g, NewOptions(0, 5)); err == nil {
		t.Error("invalid options accepted")
	}
	opts := NewOptions(2, 6)
	opts.StreamBuffer = -1
	if _, err := RunStream(context.Background(), g, opts); err == nil {
		t.Error("negative StreamBuffer accepted")
	}
	opts = NewOptions(2, 6)
	opts.OnPlex = func([]int) {}
	if _, err := RunStream(context.Background(), g, opts); err == nil {
		t.Error("OnPlex accepted on the streaming path")
	}
}
