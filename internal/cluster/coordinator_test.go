package cluster

// Coordinator tests run real dispatch against in-process fake workers:
// httptest servers speaking the /cluster/run NDJSON protocol, with an
// intercept hook for injecting crashes, stalls and gates. Every grid cell
// pins the distributed result byte-identical to the single-node reference.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/jobs"
	"repro/internal/kplex"
	"repro/internal/obs"
)

// Counters exposes the coordinator's metrics block.
func (c *Coordinator) Counters() *Counters { return &c.counters }

// fakeWorker is a minimal kplexd stand-in: it executes ranges for real
// (through the same RunRange core the server handler uses) and counts how
// many times each range was launched, so tests can assert what re-ran.
type fakeWorker struct {
	t  *testing.T
	ts *httptest.Server

	mu   sync.Mutex
	runs map[int]int // launches per range, keyed by Lo
	// intercept, when set, sees every request first; returning true means
	// it fully handled the response.
	intercept func(w http.ResponseWriter, r *http.Request, req *RangeRequest) bool
}

func newFakeWorker(t *testing.T) *fakeWorker {
	fw := &fakeWorker{t: t, runs: make(map[int]int)}
	fw.ts = httptest.NewServer(http.HandlerFunc(fw.handle))
	t.Cleanup(fw.ts.Close)
	return fw
}

func (fw *fakeWorker) url() string { return fw.ts.URL }

func (fw *fakeWorker) setIntercept(fn func(http.ResponseWriter, *http.Request, *RangeRequest) bool) {
	fw.mu.Lock()
	fw.intercept = fn
	fw.mu.Unlock()
}

func (fw *fakeWorker) runCount(lo int) int {
	fw.mu.Lock()
	defer fw.mu.Unlock()
	return fw.runs[lo]
}

func (fw *fakeWorker) handle(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/cluster/run" {
		http.NotFound(w, r)
		return
	}
	var req RangeRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	fw.mu.Lock()
	fw.runs[req.Lo]++
	icept := fw.intercept
	fw.mu.Unlock()
	if icept != nil && icept(w, r, &req) {
		return
	}
	fw.serve(w, r, &req)
}

// serve is the honest path: verify the digest, run the range, stream a
// heartbeat and the sealed aggregate — the fake twin of handleClusterRun.
func (fw *fakeWorker) serve(w http.ResponseWriter, r *http.Request, req *RangeRequest) {
	enc := json.NewEncoder(w)
	fl, _ := w.(http.Flusher)
	enc.Encode(RangeLine{SeedsDone: 0}) //nolint:errcheck
	if fl != nil {
		fl.Flush()
	}
	fail := func(err error) { enc.Encode(RangeLine{Error: err.Error()}) } //nolint:errcheck
	g, digest, release, err := testLoader(req.Graph)
	if err != nil {
		fail(err)
		return
	}
	defer release()
	if digest != req.Digest {
		fail(fmt.Errorf("digest mismatch: have %s, coordinator wants %s", digest, req.Digest))
		return
	}
	opts, err := kplex.ServiceOptions(req.K, req.Q, req.Threads, 2, req.Scheduler)
	if err != nil {
		fail(err)
		return
	}
	p, err := kplex.Prepare(g, opts)
	if err != nil {
		fail(err)
		return
	}
	agg, _, err := RunRange(r.Context(), p, opts, req, nil)
	if err != nil {
		fail(err)
		return
	}
	enc.Encode(RangeLine{SeedsDone: req.Hi - req.Lo, Done: true, Agg: agg.Snapshot()}) //nolint:errcheck
}

// assertResultMatchesRef pins a merged distributed result to the
// single-node reference aggregate, field by field.
func assertResultMatchesRef(t *testing.T, res *jobs.Result, ref *kplex.Aggregate) {
	t.Helper()
	if res.Count != ref.Count {
		t.Errorf("count = %d, want %d", res.Count, ref.Count)
	}
	if res.MaxSize != ref.MaxSize {
		t.Errorf("maxSize = %d, want %d", res.MaxSize, ref.MaxSize)
	}
	if res.PlexDigest != ref.PlexDigest() {
		t.Errorf("plex digest = %s, want %s (result set differs)", res.PlexDigest, ref.PlexDigest())
	}
	wantHist := ref.Histogram
	if wantHist == nil {
		wantHist = map[int]int64{}
	}
	if !reflect.DeepEqual(res.Histogram, wantHist) {
		t.Errorf("histogram = %v, want %v", res.Histogram, wantHist)
	}
	wantTopK := ref.TopK
	if wantTopK == nil {
		wantTopK = [][]int{}
	}
	if !reflect.DeepEqual(res.TopK, wantTopK) {
		t.Errorf("topk = %v, want %v", res.TopK, wantTopK)
	}
}

// openTestCoordinator opens a coordinator over dir leasing to workers,
// with a lease timeout no healthy test worker reaches and stealing off.
func openTestCoordinator(t *testing.T, dir string, workers ...string) *Coordinator {
	t.Helper()
	c, err := Open(jobs.Config{Dir: dir, Load: testLoader, Logf: t.Logf}, Config{
		Workers:      workers,
		LeaseTimeout: 10 * time.Second,
		StealAfter:   time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

func waitDone(t *testing.T, c *Coordinator, id string) *jobs.View {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	v, err := c.Wait(ctx, id)
	if err != nil {
		t.Fatalf("waiting for %s: %v", id, err)
	}
	return v
}

// TestDistributedKillWorkerMatchesSingleNode is the acceptance grid: one
// worker drops its first connection mid-stream, forcing at least one lease
// reassignment, and the merged result must still be identical to the
// single-node run — for more than one partitioning.
func TestDistributedKillWorkerMatchesSingleNode(t *testing.T) {
	const graphName, k, q, topn = "corpus:planted-overlap", 2, 6, 7
	ref := refAggregate(t, graphName, k, q, topn)

	for _, nRanges := range []int{3, 7} {
		t.Run(fmt.Sprintf("ranges=%d", nRanges), func(t *testing.T) {
			killer := newFakeWorker(t)
			var killed atomic.Bool
			killer.setIntercept(func(w http.ResponseWriter, r *http.Request, req *RangeRequest) bool {
				if killed.CompareAndSwap(false, true) {
					// One heartbeat so the lease is live, then die mid-range.
					io.WriteString(w, "{\"seedsDone\":0}\n") //nolint:errcheck
					w.(http.Flusher).Flush()
					panic(http.ErrAbortHandler)
				}
				return false
			})
			healthy := newFakeWorker(t)

			c, err := Open(jobs.Config{Dir: t.TempDir(), Load: testLoader, Logf: t.Logf}, Config{
				Workers:      []string{killer.url(), healthy.url()},
				LeaseTimeout: 10 * time.Second,
				StealAfter:   time.Hour, // isolate reassignment from stealing
			})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(c.Close)

			man, err := c.Submit(jobs.Spec{Graph: graphName, K: k, Q: q, TopN: topn, Ranges: nRanges})
			if err != nil {
				t.Fatal(err)
			}
			v := waitDone(t, c, man.ID)
			if v.State != jobs.StateDone {
				t.Fatalf("job state = %s (error %q), want done", v.State, v.Error)
			}
			if got := c.Counters().Reassigned.Load(); got < 1 {
				t.Errorf("reassigned = %d, want >= 1 (the killed lease)", got)
			}
			if v.Progress.SeedsDone != v.TotalSeeds {
				t.Errorf("final progress reports %d/%d seeds", v.Progress.SeedsDone, v.TotalSeeds)
			}
			res, err := c.Result(man.ID)
			if err != nil {
				t.Fatal(err)
			}
			assertResultMatchesRef(t, res, ref)
			if res.Resumes != 0 {
				t.Errorf("resumes = %d, want 0", res.Resumes)
			}
		})
	}
}

// TestLeaseExpiryReassigns starves the watchdog: the worker heartbeats
// once and then goes silent, so the lease must expire, return to pending,
// and succeed on retry — with the expiry visible in the counters.
func TestLeaseExpiryReassigns(t *testing.T) {
	const graphName, k, q, topn = "corpus:planted-overlap", 2, 6, 7
	ref := refAggregate(t, graphName, k, q, topn)

	fw := newFakeWorker(t)
	var stalled atomic.Bool
	fw.setIntercept(func(w http.ResponseWriter, r *http.Request, req *RangeRequest) bool {
		if stalled.CompareAndSwap(false, true) {
			io.WriteString(w, "{\"seedsDone\":0}\n") //nolint:errcheck
			w.(http.Flusher).Flush()
			<-r.Context().Done() // no further progress: let the watchdog fire
			return true
		}
		return false
	})

	c, err := Open(jobs.Config{Dir: t.TempDir(), Load: testLoader, Logf: t.Logf}, Config{
		Workers:      []string{fw.url()},
		LeaseTimeout: 300 * time.Millisecond,
		StealAfter:   time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)

	man, err := c.Submit(jobs.Spec{Graph: graphName, K: k, Q: q, TopN: topn, Ranges: 2})
	if err != nil {
		t.Fatal(err)
	}
	v := waitDone(t, c, man.ID)
	if v.State != jobs.StateDone {
		t.Fatalf("job state = %s (error %q), want done", v.State, v.Error)
	}
	if got := c.Counters().Expired.Load(); got < 1 {
		t.Errorf("expired = %d, want >= 1 (the silent lease)", got)
	}
	if got := c.Counters().Reassigned.Load(); got < 1 {
		t.Errorf("reassigned = %d, want >= 1", got)
	}
	res, err := c.Result(man.ID)
	if err != nil {
		t.Fatal(err)
	}
	assertResultMatchesRef(t, res, ref)
}

// TestStealReassignsStraggler gives the job's only range to a worker that
// heartbeats forever without finishing. The idle second worker must steal
// the range past StealAfter and win, without failing the straggler's job.
func TestStealReassignsStraggler(t *testing.T) {
	const graphName, k, q, topn = "corpus:planted-overlap", 2, 6, 7
	ref := refAggregate(t, graphName, k, q, topn)

	straggler := newFakeWorker(t)
	straggler.setIntercept(func(w http.ResponseWriter, r *http.Request, req *RangeRequest) bool {
		enc := json.NewEncoder(w)
		fl := w.(http.Flusher)
		tick := time.NewTicker(30 * time.Millisecond)
		defer tick.Stop()
		for {
			enc.Encode(RangeLine{SeedsDone: 1}) //nolint:errcheck
			fl.Flush()
			select {
			case <-tick.C:
			case <-r.Context().Done():
				return true
			}
		}
	})
	healthy := newFakeWorker(t)

	// The straggler is listed first, so the tie-break hands it the lease.
	c, err := Open(jobs.Config{Dir: t.TempDir(), Load: testLoader, Logf: t.Logf}, Config{
		Workers:      []string{straggler.url(), healthy.url()},
		LeaseTimeout: 10 * time.Second, // heartbeats keep the watchdog quiet
		StealAfter:   200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)

	man, err := c.Submit(jobs.Spec{Graph: graphName, K: k, Q: q, TopN: topn, Ranges: 1})
	if err != nil {
		t.Fatal(err)
	}
	v := waitDone(t, c, man.ID)
	if v.State != jobs.StateDone {
		t.Fatalf("job state = %s (error %q), want done", v.State, v.Error)
	}
	if got := c.Counters().Stolen.Load(); got < 1 {
		t.Errorf("stolen = %d, want >= 1", got)
	}
	res, err := c.Result(man.ID)
	if err != nil {
		t.Fatal(err)
	}
	assertResultMatchesRef(t, res, ref)
}

// TestCoordinatorRestartResumesCompletedRanges interrupts a running job
// after two ranges are checkpointed, reopens the coordinator over the same
// state dir, and requires (a) the job to resume and finish, and (b) the
// already-completed ranges to never be launched again.
func TestCoordinatorRestartResumesCompletedRanges(t *testing.T) {
	const graphName, k, q, topn = "corpus:planted-overlap", 2, 6, 7
	ref := refAggregate(t, graphName, k, q, topn)

	fw := newFakeWorker(t)
	gate := make(chan struct{})
	var completed atomic.Int64
	fw.setIntercept(func(w http.ResponseWriter, r *http.Request, req *RangeRequest) bool {
		if completed.Load() >= 2 {
			// Later ranges stall until the gate opens (phase 2) or the
			// coordinator shuts the lease down (phase 1's interruption).
			io.WriteString(w, "{\"seedsDone\":0}\n") //nolint:errcheck
			w.(http.Flusher).Flush()
			select {
			case <-gate:
			case <-r.Context().Done():
				return true
			}
		}
		fw.serve(w, r, req)
		completed.Add(1)
		return true
	})

	dir := t.TempDir()
	jc := jobs.Config{Dir: dir, Load: testLoader, Logf: t.Logf}
	cfg := Config{
		Workers:      []string{fw.url()},
		LeaseTimeout: time.Minute,
		StealAfter:   time.Hour,
	}
	c1, err := Open(jc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	man, err := c1.Submit(jobs.Spec{Graph: graphName, K: k, Q: q, TopN: topn, Ranges: 4})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(20 * time.Second)
	for {
		v, err := c1.Get(man.ID)
		if err != nil {
			t.Fatal(err)
		}
		if v.RangesDone >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no two ranges checkpointed in time (state %s, %d done)", v.State, v.RangesDone)
		}
		time.Sleep(20 * time.Millisecond)
	}
	c1.Close() // interrupts the stalled lease and parks the job

	jdir := filepath.Join(dir, man.ID)
	man1, err := jobs.ReadManifest(jdir)
	if err != nil {
		t.Fatal(err)
	}
	if man1.State != jobs.StateCheckpointed {
		t.Fatalf("parked state = %s, want checkpointed", man1.State)
	}
	rep, err := replayRangeWAL(filepath.Join(jdir, rangeWALName), len(man1.Ranges))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.aggs) < 2 {
		t.Fatalf("only %d ranges checkpointed at interruption", len(rep.aggs))
	}
	phase1Runs := make(map[int]int, len(rep.aggs))
	for rid := range rep.aggs {
		phase1Runs[rid] = fw.runCount(man1.Ranges[rid].Lo)
	}

	close(gate)
	c2, err := Open(jc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c2.Close)
	if got := c2.Counters().Resumed.Load(); got != 1 {
		t.Errorf("resumed counter = %d, want 1", got)
	}
	v := waitDone(t, c2, man.ID)
	if v.State != jobs.StateDone {
		t.Fatalf("resumed job state = %s (error %q), want done", v.State, v.Error)
	}
	if v.Resumes != 1 {
		t.Errorf("manifest resumes = %d, want 1", v.Resumes)
	}
	for rid, n := range phase1Runs {
		if got := fw.runCount(man1.Ranges[rid].Lo); got != n {
			t.Errorf("checkpointed range %d was launched again after restart (%d -> %d launches)", rid, n, got)
		}
	}
	res, err := c2.Result(man.ID)
	if err != nil {
		t.Fatal(err)
	}
	assertResultMatchesRef(t, res, ref)
	if res.Resumes != 1 {
		t.Errorf("result resumes = %d, want 1", res.Resumes)
	}
}

// fakeJob stands in for the running job a dispatcher reports to.
type fakeJob struct {
	t   *testing.T
	man jobs.Manifest
}

func (f *fakeJob) Publish(jobs.Progress) {}
func (f *fakeJob) Update(fn func(*jobs.Manifest)) error {
	fn(&f.man)
	return nil
}
func (f *fakeJob) Logf(format string, args ...any) { f.t.Logf(format, args...) }

// TestDoubleCompletionIdempotent drives the dispatcher's completion path
// directly with two racing leases for the same range: the first report
// must be committed and checkpointed, the second counted and dropped, and
// the range merged exactly once.
func TestDoubleCompletionIdempotent(t *testing.T) {
	liveAgg := func(seed int) *kplex.Aggregate {
		a := kplex.NewAggregate(5)
		a.AddPlex([]int{seed, seed + 1, seed + 2})
		return a
	}

	c := &Coordinator{cfg: Config{}.withDefaults(), counters: newCounters(obs.NewRegistry())}
	j := &fakeJob{t: t, man: jobs.Manifest{ID: "dtest", State: jobs.StateRunning}}
	ranges := partition(20, 2)
	walPath := filepath.Join(t.TempDir(), rangeWALName)
	w, err := jobs.OpenLog(walPath, 0)
	if err != nil {
		t.Fatal(err)
	}
	d := newDispatcher(c, j, j.man.ID, RangeRequest{Graph: "g", Digest: "digest", TotalSeeds: 20, K: 2, Q: 6, TopN: 5}, ranges,
		&rangeReplay{aggs: make(map[int]*kplex.Aggregate)}, w)

	// Range 0 is out on two leases at once: a speculation race in flight.
	wA := &workerState{url: "http://a"}
	wB := &workerState{url: "http://b"}
	lA := &lease{rid: 0, w: wA}
	lB := &lease{rid: 0, w: wB, stolen: true}
	d.pending = d.pending[1:]
	d.status[0] = rangeLeased
	d.leases[0] = []*lease{lA, lB}
	d.inflight = 2

	aggA, aggB := liveAgg(1), liveAgg(50)
	d.complete(lA, aggA)
	d.complete(lB, aggB)

	if got := c.counters.DoubleReports.Load(); got != 1 {
		t.Errorf("double reports = %d, want 1", got)
	}
	if got := c.counters.RangesDone.Load(); got != 1 {
		t.Errorf("ranges-done counter = %d, want 1 (duplicate must not count)", got)
	}
	if d.doneCount != 1 || d.status[0] != rangeDone {
		t.Errorf("doneCount = %d status = %d, want 1/done", d.doneCount, d.status[0])
	}
	if d.aggs[0] != aggA {
		t.Error("committed aggregate is not the first report's")
	}
	if d.inflight != 0 {
		t.Errorf("inflight = %d after both leases retired, want 0", d.inflight)
	}
	if rangesDone := j.man.RangesDone; rangesDone != 1 {
		t.Errorf("manifest rangesDone = %d, want 1", rangesDone)
	}
	w.Close()
	rep, err := replayRangeWAL(walPath, len(ranges))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.aggs) != 1 {
		t.Fatalf("WAL holds %d range checkpoints, want exactly 1", len(rep.aggs))
	}
	if rep.aggs[0].PlexDigest() != aggA.PlexDigest() {
		t.Error("WAL checkpoint is not the winning report")
	}
}

// TestUnknownGraphFailsJob: a graph the coordinator cannot resolve fails
// the job at run time with a useful error, not a hang.
func TestUnknownGraphFailsJob(t *testing.T) {
	c := openTestCoordinator(t, t.TempDir())
	man, err := c.Submit(jobs.Spec{Graph: "corpus:no-such-graph", K: 2, Q: 6})
	if err != nil {
		t.Fatal(err)
	}
	v := waitDone(t, c, man.ID)
	if v.State != jobs.StateFailed || v.Error == "" {
		t.Fatalf("state = %s error = %q, want a failed job with an error", v.State, v.Error)
	}
	if c.Counters().Failed.Load() != 1 {
		t.Errorf("failed counter = %d, want 1", c.Counters().Failed.Load())
	}
}
