package cluster

// TestLifecycleTable runs one table of job lifecycle scenarios over both
// executors behind jobs.Manager: the local seed-level executor and this
// package's range executor (against an in-process fake worker). The
// lifecycle — validation, queueing, cancellation, deletion,
// subscription, restart parking and resumption — is the manager's, so
// every scenario must hold identically for both, down to the running and
// queued gauges reading 0 once the scenario's jobs are terminal.

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/jobs"
)

// lifecycleExecutor is one row of the table.
type lifecycleExecutor struct {
	name string
	// spec is a valid query the executor runs to the reference answer.
	spec jobs.Spec
	// invalid lists specs only this executor refuses.
	invalid []jobs.Spec
	// open opens a manager over jc.Dir running the executor. With hold,
	// each run stalls once it has durable progress, until its context
	// ends (a cancel or the manager's Close).
	open func(t *testing.T, jc jobs.Config, hold bool) *jobs.Manager
}

var lifecycleExecutors = []lifecycleExecutor{
	{
		name:    "local",
		spec:    jobs.Spec{Graph: "corpus:planted-a", K: 2, Q: 6, TopN: 5},
		invalid: []jobs.Spec{{Graph: "g", K: 2, Q: 6, Ranges: 2}},
		open: func(t *testing.T, jc jobs.Config, hold bool) *jobs.Manager {
			jc.Workers = 1
			jc.CheckpointSeeds = 1
			jc.MinCheckpointGap = -1 // every committed seed is a checkpoint
			jc.DefaultThreads = 2
			if hold {
				// The first checkpoint moves the job to checkpointed; the
				// second fsync then blocks the committing engine worker
				// until the run's context (captured at admission) ends.
				var run atomic.Pointer[context.Context]
				var fsyncs atomic.Int64
				admit := jc.Admit
				jc.Admit = func(ctx context.Context, tenant string) (func(), error) {
					run.Store(&ctx)
					if admit != nil {
						return admit(ctx, tenant)
					}
					return func() {}, nil
				}
				jc.ObserveFsync = func(time.Duration) {
					if fsyncs.Add(1) == 2 {
						<-(*run.Load()).Done()
					}
				}
			}
			m, err := jobs.Open(jc)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(m.Close)
			return m
		},
	},
	{
		name: "range",
		spec: jobs.Spec{Graph: "corpus:planted-a", K: 2, Q: 6, TopN: 5, Ranges: 3},
		invalid: []jobs.Spec{
			{Graph: "g", Items: []jobs.SpecItem{{K: 2, Q: 6}}},
			{Graph: "g", K: 2, Q: 6, Ranges: maxSpecRanges + 1},
			{Graph: "g", K: 2, Q: 6, Threads: 300},
		},
		open: func(t *testing.T, jc jobs.Config, hold bool) *jobs.Manager {
			fw := newFakeWorker(t)
			if hold {
				// The first range completes; every later lease heartbeats
				// until the coordinator drops it.
				var leases atomic.Int64
				fw.setIntercept(func(w http.ResponseWriter, r *http.Request, req *RangeRequest) bool {
					if leases.Add(1) == 1 {
						return false
					}
					enc := json.NewEncoder(w)
					tick := time.NewTicker(30 * time.Millisecond)
					defer tick.Stop()
					for {
						enc.Encode(RangeLine{SeedsDone: 1}) //nolint:errcheck
						w.(http.Flusher).Flush()
						select {
						case <-tick.C:
						case <-r.Context().Done():
							return true
						}
					}
				})
			}
			c, err := Open(jc, Config{
				Workers:      []string{fw.url()},
				LeaseTimeout: 10 * time.Second,
				StealAfter:   time.Hour,
			})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(c.Close)
			return c.Manager
		},
	},
}

func waitJob(t *testing.T, m *jobs.Manager, id string) *jobs.View {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	v, err := m.Wait(ctx, id)
	if err != nil {
		t.Fatalf("waiting for %s: %v", id, err)
	}
	return v
}

// waitHeld polls until the job is running with durable progress — and,
// for a distributed job, with a range out on lease.
func waitHeld(t *testing.T, m *jobs.Manager, id string) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		v, err := m.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if v.State == jobs.StateCheckpointed && (v.Progress.RangesTotal == 0 || v.Progress.Leased >= 1) {
			return
		}
		if v.State.Terminal() || time.Now().After(deadline) {
			t.Fatalf("job never held with durable progress (state %s, error %q)", v.State, v.Error)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// assertIdle checks the manager's gauges once every job in a scenario is
// terminal: a job a client already sees as finished must no longer count
// as running or queued, whichever executor ran it.
func assertIdle(t *testing.T, m *jobs.Manager) {
	t.Helper()
	c := m.Counters()
	if running, queued := c.Running.Load(), c.Queued.Load(); running != 0 || queued != 0 {
		t.Errorf("every job terminal, but running gauge = %d and queued gauge = %d, want 0 and 0", running, queued)
	}
}

func TestLifecycleTable(t *testing.T) {
	ref := refAggregate(t, "corpus:planted-a", 2, 6, 5)
	for _, ex := range lifecycleExecutors {
		config := func(dir string) jobs.Config {
			return jobs.Config{Dir: dir, Load: testLoader, Logf: t.Logf}
		}
		t.Run(ex.name, func(t *testing.T) {
			t.Run("submit-validation", func(t *testing.T) {
				m := ex.open(t, config(t.TempDir()), false)
				invalid := append([]jobs.Spec{
					{K: 2, Q: 6},                           // no graph
					{Graph: "g", K: 0, Q: 6},               // bad k
					{Graph: "g", K: 2, Q: 2},               // q < 2k-1
					{Graph: "g", K: 2, Q: 6, TopN: -1},     // bad topn
					{Graph: "g", K: 2, Q: 6, TopN: 100000}, // topn over cap
					{Graph: "g", K: 2, Q: 6, Scheduler: "lifo"},
				}, ex.invalid...)
				for _, spec := range invalid {
					if _, err := m.Submit(spec); err == nil {
						t.Errorf("Submit(%+v) accepted", spec)
					}
				}
				if _, err := m.Get("nope"); !errors.Is(err, jobs.ErrNotFound) {
					t.Errorf("Get(unknown) = %v, want ErrNotFound", err)
				}
				if err := m.Cancel("nope"); !errors.Is(err, jobs.ErrNotFound) {
					t.Errorf("Cancel(unknown) = %v, want ErrNotFound", err)
				}
				assertIdle(t, m)
			})

			t.Run("cancel-queued", func(t *testing.T) {
				dir := t.TempDir()
				jc := config(dir)
				gate := make(chan struct{})
				jc.Admit = func(ctx context.Context, _ string) (func(), error) {
					select {
					case <-gate:
						return func() {}, nil
					case <-ctx.Done():
						return nil, ctx.Err()
					}
				}
				m := ex.open(t, jc, false)
				blocked, err := m.Submit(ex.spec)
				if err != nil {
					t.Fatal(err)
				}
				queued, err := m.Submit(ex.spec)
				if err != nil {
					t.Fatal(err)
				}
				// The second job sits in the queue behind the single
				// admission-gated worker; cancelling it must not need the
				// worker at all.
				if err := m.Delete(queued.ID); !errors.Is(err, jobs.ErrActive) {
					t.Errorf("Delete(queued) = %v, want ErrActive", err)
				}
				if err := m.Cancel(queued.ID); err != nil {
					t.Fatal(err)
				}
				if v, _ := m.Get(queued.ID); v.State != jobs.StateCancelled {
					t.Fatalf("queued job state = %s, want cancelled", v.State)
				}
				// Cancel the admission-blocked job too: its wait ends with
				// the cancel, not the gate.
				if err := m.Cancel(blocked.ID); err != nil {
					t.Fatal(err)
				}
				if v := waitJob(t, m, blocked.ID); v.State != jobs.StateCancelled {
					t.Fatalf("admission-blocked job state = %s, want cancelled", v.State)
				}
				assertIdle(t, m)
				// Delete works on terminal jobs and removes the directory.
				if err := m.Delete(queued.ID); err != nil {
					t.Fatal(err)
				}
				if _, err := os.Stat(filepath.Join(dir, queued.ID)); !errors.Is(err, os.ErrNotExist) {
					t.Fatal("job directory survived Delete")
				}
				if _, err := m.Get(queued.ID); !errors.Is(err, jobs.ErrNotFound) {
					t.Fatal("deleted job still listed")
				}
			})

			t.Run("cancel-running", func(t *testing.T) {
				m := ex.open(t, config(t.TempDir()), true)
				man, err := m.Submit(ex.spec)
				if err != nil {
					t.Fatal(err)
				}
				waitHeld(t, m, man.ID)
				if err := m.Delete(man.ID); !errors.Is(err, jobs.ErrActive) {
					t.Errorf("Delete(running) = %v, want ErrActive", err)
				}
				if err := m.Cancel(man.ID); err != nil {
					t.Fatal(err)
				}
				if v := waitJob(t, m, man.ID); v.State != jobs.StateCancelled {
					t.Fatalf("state = %s, want cancelled", v.State)
				}
				assertIdle(t, m)
				if _, err := m.Result(man.ID); !errors.Is(err, jobs.ErrNotDone) {
					t.Errorf("Result(cancelled) = %v, want ErrNotDone", err)
				}
				if err := m.Cancel(man.ID); !errors.Is(err, jobs.ErrNotActive) {
					t.Errorf("Cancel(cancelled) = %v, want ErrNotActive", err)
				}
				if err := m.Delete(man.ID); err != nil {
					t.Fatal(err)
				}
				if _, err := m.Get(man.ID); !errors.Is(err, jobs.ErrNotFound) {
					t.Errorf("Get after Delete = %v, want ErrNotFound", err)
				}
			})

			t.Run("subscribe-terminal-and-delete", func(t *testing.T) {
				dir := t.TempDir()
				m := ex.open(t, config(dir), false)
				man, err := m.Submit(ex.spec)
				if err != nil {
					t.Fatal(err)
				}
				if v := waitJob(t, m, man.ID); v.State != jobs.StateDone {
					t.Fatalf("state = %s (error %q), want done", v.State, v.Error)
				}
				assertIdle(t, m)
				res, err := m.Result(man.ID)
				if err != nil {
					t.Fatal(err)
				}
				assertResultMatchesRef(t, res, ref)
				// Subscribing after completion must yield the terminal
				// snapshot and a closed channel, not a hang.
				ch, stop, err := m.Subscribe(man.ID)
				if err != nil {
					t.Fatal(err)
				}
				defer stop()
				if first, ok := <-ch; !ok || first.State != jobs.StateDone {
					t.Fatalf("first update = %+v (open=%v), want done", first, ok)
				}
				if _, ok := <-ch; ok {
					t.Fatal("channel not closed after terminal state")
				}
				if err := m.Delete(man.ID); err != nil {
					t.Fatal(err)
				}
				if _, err := os.Stat(filepath.Join(dir, man.ID)); !errors.Is(err, os.ErrNotExist) {
					t.Fatal("job directory survived Delete")
				}
			})

			t.Run("restart-resume", func(t *testing.T) {
				dir := t.TempDir()
				m1 := ex.open(t, config(dir), true)
				man, err := m1.Submit(ex.spec)
				if err != nil {
					t.Fatal(err)
				}
				waitHeld(t, m1, man.ID)
				m1.Close() // parks the running job with its progress

				onDisk, err := jobs.ReadManifest(filepath.Join(dir, man.ID))
				if err != nil {
					t.Fatal(err)
				}
				if onDisk.State != jobs.StateCheckpointed {
					t.Fatalf("parked state on disk = %s, want checkpointed", onDisk.State)
				}

				m2 := ex.open(t, config(dir), false)
				if got := m2.Counters().Resumed.Load(); got != 1 {
					t.Errorf("resumed counter = %d, want 1", got)
				}
				v := waitJob(t, m2, man.ID)
				if v.State != jobs.StateDone {
					t.Fatalf("resumed job ended %s (error %q), want done", v.State, v.Error)
				}
				assertIdle(t, m2)
				if v.Resumes != 1 {
					t.Errorf("manifest resumes = %d, want 1", v.Resumes)
				}
				res, err := m2.Result(man.ID)
				if err != nil {
					t.Fatal(err)
				}
				assertResultMatchesRef(t, res, ref)
				if res.Resumes != 1 {
					t.Errorf("result resumes = %d, want 1", res.Resumes)
				}
			})
		})
	}
}
