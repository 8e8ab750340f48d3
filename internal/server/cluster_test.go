package server

// End-to-end tests for the /cluster surface: real kplexd workers behind
// real HTTP listeners, driven by a real coordinator, with the distributed
// answer pinned against an in-process single-node reference.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/jobs"
	"repro/internal/kplex"
)

// clusterRef computes the single-node ground truth for a corpus cell.
func clusterRef(t *testing.T, name string, k, q, topn int) *kplex.Aggregate {
	t.Helper()
	cg := gen.CorpusGraphByName(strings.TrimPrefix(name, "corpus:"))
	if cg == nil {
		t.Fatalf("unknown corpus graph %q", name)
	}
	agg := kplex.NewAggregate(topn)
	opts := kplex.NewOptions(k, q)
	opts.OnPlex = func(p []int) { agg.AddPlex(p) }
	if _, err := kplex.Run(context.Background(), cg.Build(), opts); err != nil {
		t.Fatal(err)
	}
	return agg
}

func assertClusterResult(t *testing.T, res *jobs.Result, ref *kplex.Aggregate) {
	t.Helper()
	if res.Count != ref.Count || res.MaxSize != ref.MaxSize {
		t.Errorf("result count=%d maxSize=%d, want %d/%d", res.Count, res.MaxSize, ref.Count, ref.MaxSize)
	}
	if res.PlexDigest != ref.PlexDigest() {
		t.Errorf("plex digest = %s, want %s (distributed result set differs)", res.PlexDigest, ref.PlexDigest())
	}
}

// waitClusterJob polls the coordinator until the job is terminal.
func waitClusterJob(t *testing.T, base, id string) jobs.View {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		var v jobs.View
		if code := getJSON(t, base+"/cluster/jobs/"+id, &v); code != http.StatusOK {
			t.Fatalf("GET /cluster/jobs/%s: status %d", id, code)
		}
		if v.State.Terminal() {
			return v
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still %s after 30s (%d/%d ranges)", id, v.State, v.RangesDone, len(v.Ranges))
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func TestClusterCoordinatorDisabled(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	resp, body := postJSON(t, hs.URL+"/cluster/jobs", `{"graph":"corpus:planted-a","k":2,"q":6}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit without -coordinator: status %d (%s)", resp.StatusCode, body)
	}
	if code := getJSON(t, hs.URL+"/cluster/workers", nil); code != http.StatusServiceUnavailable {
		t.Fatalf("GET /cluster/workers without -coordinator: status %d", code)
	}
	// The worker surface stays up: every kplexd can execute leases.
	resp, _ = postJSON(t, hs.URL+"/cluster/run", `{"graph":"corpus:planted-a"}`)
	if resp.StatusCode != http.StatusBadRequest { // k missing, not 503
		t.Fatalf("POST /cluster/run on a plain worker: status %d, want 400", resp.StatusCode)
	}
}

func TestClusterRunValidation(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	for _, tc := range []struct {
		body string
		want int
	}{
		{`{"graph":"corpus:planted-a","k":0,"q":6,"totalSeeds":1,"hi":1}`, http.StatusBadRequest},
		{`{"graph":"corpus:nope","k":2,"q":6,"totalSeeds":1,"hi":1}`, http.StatusNotFound},
		// Wrong digest: the handshake refuses before any enumeration.
		{`{"graph":"corpus:planted-a","digest":"deadbeef","k":2,"q":6,"totalSeeds":1,"hi":1}`, http.StatusConflict},
		// Wrong seed-space size: coordinator/worker skew.
		{`{"graph":"corpus:planted-a","k":2,"q":6,"totalSeeds":1,"lo":0,"hi":1}`, http.StatusConflict},
	} {
		resp, body := postJSON(t, hs.URL+"/cluster/run", tc.body)
		if resp.StatusCode != tc.want {
			t.Errorf("POST /cluster/run %s: status %d (%s), want %d", tc.body, resp.StatusCode, body, tc.want)
		}
	}
}

// TestClusterRunRejectsInvalidCellBeforeAdmission: a range whose cell
// breaks q >= 2k-1 is answered 400 from its options alone, before it
// queues for a slot or looks up a prologue. Every slot is held, so a
// handler that validated only after admission would never answer.
func TestClusterRunRejectsInvalidCellBeforeAdmission(t *testing.T) {
	s, hs := newTestServer(t, Config{MaxConcurrent: 1})
	release, err := s.qos.Admit(context.Background(), "blocker")
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, hs.URL+"/cluster/run",
		strings.NewReader(`{"graph":"corpus:planted-a","k":3,"q":4,"totalSeeds":1,"hi":1}`))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatalf("q < 2k-1 range with every slot held: %v, want an immediate 400", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d (%s), want 400", resp.StatusCode, body)
	}
	if m := stats(t, hs.URL); m["prepared_misses"] != 0 {
		t.Fatalf("prepared_misses = %d after an invalid range, want 0", m["prepared_misses"])
	}
}

// TestClusterRunStreamsRange drives the worker endpoint directly with a
// correct handshake and checks the streamed aggregate for a full range.
func TestClusterRunStreamsRange(t *testing.T) {
	const name, k, q, topn = "planted-a", 2, 6, 5
	ref := clusterRef(t, name, k, q, topn)
	g := gen.CorpusGraphByName(name).Build()
	req := cluster.RangeRequest{
		Graph: "corpus:" + name, Digest: graph.DigestHexOf(g),
		K: k, Q: q, TopN: topn,
	}
	opts, err := kplex.ServiceOptions(req.K, req.Q, req.Threads, 1, req.Scheduler)
	if err != nil {
		t.Fatal(err)
	}
	p, err := kplex.Prepare(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	req.TotalSeeds = p.SeedSpace()
	req.Hi = req.TotalSeeds

	_, hs := newTestServer(t, Config{})
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(hs.URL+"/cluster/run", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var final *cluster.RangeLine
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 64<<20)
	for sc.Scan() {
		var rl cluster.RangeLine
		if err := json.Unmarshal(sc.Bytes(), &rl); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		if rl.Error != "" {
			t.Fatalf("in-band error: %s", rl.Error)
		}
		if rl.Done {
			final = &rl
			break
		}
	}
	if final == nil {
		t.Fatalf("stream ended without a done line (scan err %v)", sc.Err())
	}
	if final.Agg == nil || final.Agg.Unseal() != nil {
		t.Fatal("done line has no usable aggregate")
	}
	if final.Agg.Count != ref.Count || final.Agg.PlexDigest() != ref.PlexDigest() {
		t.Errorf("range aggregate count=%d digest=%s, want %d/%s",
			final.Agg.Count, final.Agg.PlexDigest(), ref.Count, ref.PlexDigest())
	}
	if got := stats(t, hs.URL)["range_runs"]; got != 1 {
		t.Errorf("range_runs = %d, want 1", got)
	}
}

// TestClusterRunAdmitsBeforePrologue: a leased range waits for an
// enumeration slot before it computes its prologue, so a range whose
// coordinator gives up while every slot is held leaves the prepared cache
// untouched. TestRouteAutoAdmitsBeforePrologue does the same for queries.
func TestClusterRunAdmitsBeforePrologue(t *testing.T) {
	g := gen.CorpusGraphByName("planted-a").Build()
	req := cluster.RangeRequest{Graph: "corpus:planted-a", Digest: graph.DigestHexOf(g), K: 2, Q: 6}
	opts, err := kplex.ServiceOptions(req.K, req.Q, req.Threads, 1, req.Scheduler)
	if err != nil {
		t.Fatal(err)
	}
	p, err := kplex.Prepare(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	req.TotalSeeds, req.Hi = p.SeedSpace(), p.SeedSpace()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}

	s, hs := newTestServer(t, Config{MaxConcurrent: 1})
	release, err := s.qos.Admit(context.Background(), "blocker")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, hs.URL+"/cluster/run", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		if resp, err := http.DefaultClient.Do(hreq); err == nil {
			resp.Body.Close()
		}
		close(done)
	}()
	queued := func() bool { return queuedAtAdmission(s) }
	waitFor(t, 5*time.Second, "range never queued at admission", queued)
	cancel()
	<-done
	waitFor(t, 5*time.Second, "admission waiter survived its client", func() bool { return !queued() })
	if m := stats(t, hs.URL); m["prepared_misses"] != 0 || m["range_runs"] != 0 {
		t.Fatalf("prepared_misses=%d range_runs=%d after an abandoned range, want 0 and 0",
			m["prepared_misses"], m["range_runs"])
	}

	release()
	resp, err := http.Post(hs.URL+"/cluster/run", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if m := stats(t, hs.URL); resp.StatusCode != http.StatusOK || m["prepared_misses"] != 1 || m["range_runs"] != 1 {
		t.Fatalf("status %d, prepared_misses=%d range_runs=%d for one served range, want 200, 1 and 1",
			resp.StatusCode, m["prepared_misses"], m["range_runs"])
	}
}

// TestDistributedJobEndToEnd runs a distributed job across two real
// worker kplexds and checks the merged result, the counters, and the
// Prometheus rendering on the coordinator.
func TestDistributedJobEndToEnd(t *testing.T) {
	const name, k, q, topn, nRanges = "corpus:planted-a", 2, 6, 5, 4
	ref := clusterRef(t, name, k, q, topn)

	_, w1 := newTestServer(t, Config{})
	_, w2 := newTestServer(t, Config{})
	_, coord := newTestServer(t, Config{
		ClusterDir:     filepath.Join(t.TempDir(), "cluster"),
		ClusterWorkers: []string{w1.URL, w2.URL},
	})

	resp, body := postJSON(t, coord.URL+"/cluster/jobs",
		fmt.Sprintf(`{"graph":%q,"k":%d,"q":%d,"topn":%d,"ranges":%d}`, name, k, q, topn, nRanges))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d (%s)", resp.StatusCode, body)
	}
	var man jobs.Manifest
	if err := json.Unmarshal(body, &man); err != nil {
		t.Fatal(err)
	}

	v := waitClusterJob(t, coord.URL, man.ID)
	if v.State != jobs.StateDone {
		t.Fatalf("job state = %s (error %q), want done", v.State, v.Error)
	}
	var res jobs.Result
	if code := getJSON(t, coord.URL+"/cluster/jobs/"+man.ID+"/result", &res); code != http.StatusOK {
		t.Fatalf("result: status %d", code)
	}
	assertClusterResult(t, &res, ref)

	// The interactive path on a worker answers the same cell identically.
	code, q1 := postQuery(t, w1.URL, fmt.Sprintf(`{"graph":%q,"k":%d,"q":%d,"mode":"count"}`, name, k, q))
	if code != http.StatusOK || q1.Count != res.Count {
		t.Errorf("single-node /query count = %d (status %d), distributed = %d", q1.Count, code, res.Count)
	}

	cs := stats(t, coord.URL)
	if cs["cluster_jobs_submitted"] != 1 || cs["cluster_jobs_completed"] != 1 {
		t.Errorf("coordinator counters: submitted=%d completed=%d, want 1/1",
			cs["cluster_jobs_submitted"], cs["cluster_jobs_completed"])
	}
	if cs["cluster_ranges_done"] != nRanges {
		t.Errorf("cluster_ranges_done = %d, want %d", cs["cluster_ranges_done"], nRanges)
	}
	if got := stats(t, w1.URL)["range_runs"] + stats(t, w2.URL)["range_runs"]; got != nRanges {
		t.Errorf("workers ran %d ranges, want %d", got, nRanges)
	}

	mresp, err := http.Get(coord.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	var sb strings.Builder
	sc := bufio.NewScanner(mresp.Body)
	for sc.Scan() {
		sb.WriteString(sc.Text())
		sb.WriteByte('\n')
	}
	metrics := sb.String()
	for _, want := range []string{
		"kplexd_cluster_jobs_submitted_total 1",
		"kplexd_cluster_ranges_done_total 4",
		"kplexd_cluster_jobs_running 0",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics output missing %q", want)
		}
	}
}

// TestClusterWorkerRegistration starts a coordinator with no workers: the
// job must sit leaseless until a worker registers at runtime, then finish.
func TestClusterWorkerRegistration(t *testing.T) {
	const name, k, q, topn = "corpus:planted-a", 2, 6, 5
	ref := clusterRef(t, name, k, q, topn)

	_, worker := newTestServer(t, Config{})
	_, coord := newTestServer(t, Config{ClusterDir: filepath.Join(t.TempDir(), "cluster")})

	resp, body := postJSON(t, coord.URL+"/cluster/jobs",
		fmt.Sprintf(`{"graph":%q,"k":%d,"q":%d,"topn":%d,"ranges":2}`, name, k, q, topn))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d (%s)", resp.StatusCode, body)
	}
	var man jobs.Manifest
	if err := json.Unmarshal(body, &man); err != nil {
		t.Fatal(err)
	}

	// No workers: the job runs but cannot lease anything.
	time.Sleep(150 * time.Millisecond)
	var v jobs.View
	getJSON(t, coord.URL+"/cluster/jobs/"+man.ID, &v)
	if v.State.Terminal() {
		t.Fatalf("job reached %s with no workers registered", v.State)
	}

	resp, body = postJSON(t, coord.URL+"/cluster/workers", fmt.Sprintf(`{"url":%q}`, worker.URL))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("register worker: status %d (%s)", resp.StatusCode, body)
	}
	v = waitClusterJob(t, coord.URL, man.ID)
	if v.State != jobs.StateDone {
		t.Fatalf("job state = %s (error %q), want done", v.State, v.Error)
	}
	var res jobs.Result
	if code := getJSON(t, coord.URL+"/cluster/jobs/"+man.ID+"/result", &res); code != http.StatusOK {
		t.Fatalf("result: status %d", code)
	}
	assertClusterResult(t, &res, ref)

	var workers []cluster.WorkerView
	if code := getJSON(t, coord.URL+"/cluster/workers", &workers); code != http.StatusOK {
		t.Fatalf("list workers: status %d", code)
	}
	if len(workers) != 1 || workers[0].RangesDone < 2 {
		t.Errorf("workers = %+v, want the registered worker with >= 2 ranges done", workers)
	}
	// Registration is idempotent.
	resp, _ = postJSON(t, coord.URL+"/cluster/workers", fmt.Sprintf(`{"url":%q}`, worker.URL))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("re-register: status %d", resp.StatusCode)
	}
	getJSON(t, coord.URL+"/cluster/workers", &workers)
	if len(workers) != 1 {
		t.Errorf("re-registration duplicated the worker: %d entries", len(workers))
	}
}

// TestClusterDigestMismatchFailsJob gives coordinator and worker two
// different graphs under the same name: every lease must be refused by the
// digest handshake and the job must fail mentioning it — never merge.
func TestClusterDigestMismatchFailsJob(t *testing.T) {
	coordDir, workerDir := t.TempDir(), t.TempDir()
	if err := graph.WriteFormatFile(filepath.Join(coordDir, "g.bin"), gen.GNP(40, 0.3, 1), graph.FormatBinary); err != nil {
		t.Fatal(err)
	}
	if err := graph.WriteFormatFile(filepath.Join(workerDir, "g.bin"), gen.GNP(40, 0.3, 2), graph.FormatBinary); err != nil {
		t.Fatal(err)
	}

	_, worker := newTestServer(t, Config{DataDir: workerDir})
	_, coord := newTestServer(t, Config{
		DataDir:                 coordDir,
		ClusterDir:              filepath.Join(t.TempDir(), "cluster"),
		ClusterWorkers:          []string{worker.URL},
		ClusterMaxRangeAttempts: 2,
	})

	resp, body := postJSON(t, coord.URL+"/cluster/jobs", `{"graph":"g.bin","k":2,"q":5,"ranges":2}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d (%s)", resp.StatusCode, body)
	}
	var man jobs.Manifest
	if err := json.Unmarshal(body, &man); err != nil {
		t.Fatal(err)
	}
	v := waitClusterJob(t, coord.URL, man.ID)
	if v.State != jobs.StateFailed {
		t.Fatalf("job state = %s, want failed", v.State)
	}
	if !strings.Contains(v.Error, "digest mismatch") {
		t.Errorf("failure error %q does not mention the digest handshake", v.Error)
	}
	if code := getJSON(t, coord.URL+"/cluster/jobs/"+man.ID+"/result", nil); code == http.StatusOK {
		t.Error("failed job served a result")
	}
}
