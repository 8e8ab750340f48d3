package server

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/jobs"
)

func postJSON(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	return resp, data
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	if resp.StatusCode == http.StatusOK && out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			t.Fatalf("decoding %s: %v (%s)", url, err, data)
		}
	}
	return resp.StatusCode
}

func TestJobsDisabled(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	resp, body := postJSON(t, hs.URL+"/jobs", `{"graph":"corpus:planted-a","k":2,"q":6}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("POST /jobs without -jobs = %d (%s), want 503", resp.StatusCode, body)
	}
}

func TestJobsEndToEnd(t *testing.T) {
	dir := t.TempDir()
	_, hs := newTestServer(t, Config{JobsDir: dir})

	// Unknown graphs are rejected at submit time.
	resp, _ := postJSON(t, hs.URL+"/jobs", `{"graph":"corpus:nope","k":2,"q":6}`)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("submit with unknown graph = %d, want 404", resp.StatusCode)
	}
	resp, _ = postJSON(t, hs.URL+"/jobs", `{"graph":"corpus:planted-a","k":99,"q":200}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("submit with k over cap = %d, want 400", resp.StatusCode)
	}

	resp, body := postJSON(t, hs.URL+"/jobs", `{"graph":"corpus:planted-a","k":2,"q":6,"topn":5}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d (%s), want 202", resp.StatusCode, body)
	}
	var man jobs.Manifest
	if err := json.Unmarshal(body, &man); err != nil || man.ID == "" {
		t.Fatalf("submit response %s: %v", body, err)
	}

	// The result endpoint answers 409 until the job completes.
	if code := getJSON(t, hs.URL+"/jobs/"+man.ID+"/result", nil); code != http.StatusConflict && code != http.StatusOK {
		t.Fatalf("result while running = %d, want 409 (or 200 if already done)", code)
	}

	// The events feed ends with a terminal state line.
	eventsResp, err := http.Get(hs.URL + "/jobs/" + man.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer eventsResp.Body.Close()
	var last jobs.Progress
	sc := bufio.NewScanner(eventsResp.Body)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line == "{}" {
			continue
		}
		if err := json.Unmarshal([]byte(line), &last); err != nil {
			t.Fatalf("bad event line %q: %v", line, err)
		}
	}
	if last.State != jobs.StateDone {
		t.Fatalf("events feed ended in state %q, want done", last.State)
	}
	if last.SeedsDone != last.TotalSeeds || last.TotalSeeds == 0 {
		t.Fatalf("final progress %d/%d seeds", last.SeedsDone, last.TotalSeeds)
	}

	var view jobs.View
	if code := getJSON(t, hs.URL+"/jobs/"+man.ID, &view); code != http.StatusOK {
		t.Fatalf("GET /jobs/{id} = %d", code)
	}
	if view.State != jobs.StateDone {
		t.Fatalf("job state = %s, want done", view.State)
	}

	var res jobs.Result
	if code := getJSON(t, hs.URL+"/jobs/"+man.ID+"/result", &res); code != http.StatusOK {
		t.Fatalf("GET result = %d", code)
	}

	// The async answer must agree with the synchronous query path.
	code, q := postQuery(t, hs.URL, `{"graph":"corpus:planted-a","k":2,"q":6,"mode":"count"}`)
	if code != http.StatusOK {
		t.Fatalf("query = %d", code)
	}
	if res.Count != q.Count {
		t.Fatalf("job count %d != query count %d", res.Count, q.Count)
	}

	// Listing shows the job; Prometheus metrics expose the job counters.
	var list []jobs.View
	if code := getJSON(t, hs.URL+"/jobs", &list); code != http.StatusOK || len(list) != 1 {
		t.Fatalf("GET /jobs = %d with %d entries", code, len(list))
	}
	mResp, err := http.Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mResp.Body.Close()
	prom, _ := io.ReadAll(mResp.Body)
	for _, want := range []string{
		"kplexd_jobs_submitted_total 1",
		"kplexd_jobs_completed_total 1",
		"kplexd_jobs_running 0",
		"kplexd_queries_total 1",
		"# TYPE kplexd_jobs_running gauge",
	} {
		if !strings.Contains(string(prom), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// DELETE on a terminal job removes it.
	req, _ := http.NewRequest(http.MethodDelete, hs.URL+"/jobs/"+man.ID, nil)
	dResp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dResp.Body.Close()
	if dResp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE terminal job = %d", dResp.StatusCode)
	}
	if code := getJSON(t, hs.URL+"/jobs/"+man.ID, nil); code != http.StatusNotFound {
		t.Fatalf("GET deleted job = %d, want 404", code)
	}
}

// TestJobsSurviveServerRestart submits against one server, closes it
// mid-run, and expects a second server over the same directories to finish
// the job from its checkpoint.
func TestJobsSurviveServerRestart(t *testing.T) {
	jobsDir := t.TempDir()

	s1, err := New(Config{JobsDir: jobsDir, JobCheckpointSeeds: 2, JobMinCheckpointGap: -1})
	if err != nil {
		t.Fatal(err)
	}
	man, err := s1.Jobs().Submit(jobs.Spec{Graph: "corpus:planted-overlap", K: 2, Q: 6, Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Give the job a moment to start, then shut the server down mid-run.
	// (If it already finished, the test still verifies the terminal state
	// survives the restart.)
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if v, err := s1.Jobs().Get(man.ID); err == nil && v.State != jobs.StateQueued {
			break
		}
		time.Sleep(time.Millisecond)
	}
	s1.Close()

	s2, err := New(Config{JobsDir: jobsDir})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	v, err := s2.Jobs().Wait(ctx, man.ID)
	if err != nil {
		t.Fatal(err)
	}
	if v.State != jobs.StateDone {
		t.Fatalf("restarted job ended %s (%s)", v.State, v.Error)
	}
	res, err := s2.Jobs().Result(man.ID)
	if err != nil {
		t.Fatal(err)
	}
	if res.Count == 0 {
		t.Fatal("restarted job reported zero plexes")
	}
}

// TestBatchJobOverHTTP submits a batch job through POST /jobs and pins
// every item to the engine reference. The per-item service ceilings are
// enforced at submit (k against MaxK, topn against MaxTopN, which also
// reaches the job manager), and the coordinator refuses batch specs.
func TestBatchJobOverHTTP(t *testing.T) {
	const maxTopN = 50
	s, hs := newTestServer(t, Config{
		JobsDir:    t.TempDir(),
		ClusterDir: filepath.Join(t.TempDir(), "cluster"),
		MaxTopN:    maxTopN,
	})
	for _, tc := range []struct{ path, body string }{
		{"/jobs", `{"graph":"corpus:planted-a","items":[{"k":2,"q":6},{"k":99,"q":200}]}`},
		{"/jobs", `{"graph":"corpus:planted-a","items":[{"k":2,"q":6},{"k":3,"q":8,"topn":51}]}`},
		{"/cluster/jobs", `{"graph":"corpus:planted-a","items":[{"k":2,"q":6},{"k":3,"q":8}]}`},
	} {
		if resp, body := postJSON(t, hs.URL+tc.path, tc.body); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("POST %s %s = %d (%s), want 400", tc.path, tc.body, resp.StatusCode, body)
		}
	}
	if _, err := s.Jobs().Submit(jobs.Spec{Graph: "corpus:planted-a", K: 2, Q: 6, TopN: maxTopN + 1}); err == nil {
		t.Error("job manager accepted a topn above the server's MaxTopN")
	}

	resp, body := postJSON(t, hs.URL+"/jobs", `{"graph":"corpus:planted-a","items":[{"k":2,"q":6},{"k":3,"q":8,"topn":4}]}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("batch submit = %d (%s), want 202", resp.StatusCode, body)
	}
	var man jobs.Manifest
	if err := json.Unmarshal(body, &man); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if v, err := s.Jobs().Wait(ctx, man.ID); err != nil || v.State != jobs.StateDone {
		t.Fatalf("batch job: %v (view %+v)", err, v)
	}
	var res jobs.Result
	if code := getJSON(t, hs.URL+"/jobs/"+man.ID+"/result", &res); code != http.StatusOK {
		t.Fatalf("GET result = %d", code)
	}
	cells := []struct{ k, q, topn int }{{2, 6, 10}, {3, 8, 4}}
	if len(res.Items) != len(cells) {
		t.Fatalf("result has %d items, want %d", len(res.Items), len(cells))
	}
	for i, c := range cells {
		ref := clusterRef(t, "corpus:planted-a", c.k, c.q, c.topn)
		it := res.Items[i]
		if it.K != c.k || it.Q != c.q || it.TopN != c.topn {
			t.Errorf("item %d is (k=%d q=%d topn=%d), want (%d, %d, %d)", i, it.K, it.Q, it.TopN, c.k, c.q, c.topn)
		}
		if it.Count != ref.Count || it.MaxSize != ref.MaxSize || it.PlexDigest != ref.PlexDigest() {
			t.Errorf("item %d: count=%d maxSize=%d digest=%s, want %d/%d/%s",
				i, it.Count, it.MaxSize, it.PlexDigest, ref.Count, ref.MaxSize, ref.PlexDigest())
		}
		if !reflect.DeepEqual(it.TopK, ref.TopK) || !reflect.DeepEqual(it.Histogram, ref.Histogram) {
			t.Errorf("item %d: topk %v hist %v, want %v %v", i, it.TopK, it.Histogram, ref.TopK, ref.Histogram)
		}
	}
}

// TestJobsRunningGaugeAtDone scrapes /metrics the moment each job's events
// feed delivers its terminal line: a job the client already sees as done
// must no longer count in kplexd_jobs_running (nor in the queued gauge).
// Jobs run one at a time, so both gauges must read 0 at every scrape.
func TestJobsRunningGaugeAtDone(t *testing.T) {
	_, hs := newTestServer(t, Config{JobsDir: t.TempDir()})
	gauge := func(prom, name string) string {
		for _, line := range strings.Split(prom, "\n") {
			if v, ok := strings.CutPrefix(line, name+" "); ok {
				return v
			}
		}
		return "missing"
	}
	for i := 0; i < 8; i++ {
		resp, body := postJSON(t, hs.URL+"/jobs", `{"graph":"corpus:planted-a","k":2,"q":6,"threads":2}`)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit = %d (%s), want 202", resp.StatusCode, body)
		}
		var man jobs.Manifest
		if err := json.Unmarshal(body, &man); err != nil {
			t.Fatal(err)
		}
		eventsResp, err := http.Get(hs.URL + "/jobs/" + man.ID + "/events")
		if err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(eventsResp.Body)
		var p jobs.Progress
		for sc.Scan() {
			if err := json.Unmarshal(sc.Bytes(), &p); err != nil {
				t.Fatalf("bad event line %q: %v", sc.Text(), err)
			}
			if p.State.Terminal() {
				break
			}
		}
		if p.State != jobs.StateDone {
			eventsResp.Body.Close()
			t.Fatalf("job %d: events feed ended in state %q, want done", i, p.State)
		}
		mResp, err := http.Get(hs.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		prom, _ := io.ReadAll(mResp.Body)
		mResp.Body.Close()
		eventsResp.Body.Close()
		for _, name := range []string{"kplexd_jobs_running", "kplexd_jobs_queued"} {
			if v := gauge(string(prom), name); v != "0" {
				t.Fatalf("job %d: %s = %s at the moment the done event arrived, want 0", i, name, v)
			}
		}
	}
}
