package server

// End-to-end tests for the multi-tenant QoS surface: request-context-bound
// admission, Retry-After on 429s, per-tenant quotas, deadline-bounded
// partial answers with resume jobs, and seed-sampling estimates.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/jobs"
	"repro/internal/kplex"
	"repro/internal/qos"
)

// qosResponse decodes the QoS-era queryResponse fields.
type qosResponse struct {
	Count        int64                 `json:"count"`
	MaxSize      int                   `json:"maxSize"`
	Cached       bool                  `json:"cached"`
	Partial      bool                  `json:"partial"`
	SeedsDone    int                   `json:"seedsDone"`
	TotalSeeds   int                   `json:"totalSeeds"`
	SeedFraction float64               `json:"seedFraction"`
	ResumeJob    *jobs.Manifest        `json:"resumeJob"`
	Sample       *kplex.SampleEstimate `json:"sample"`
	Histogram    map[string]int64      `json:"histogram"`
}

func postQoS(t *testing.T, url, tenant, body string) (*http.Response, qosResponse) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url+"/query", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if tenant != "" {
		req.Header.Set(tenantHeader, tenant)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out qosResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
	}
	return resp, out
}

// TestAdmissionBoundByRequestContext pins the singleflight admission fix:
// a queued query whose client goes away must abandon its admission wait
// immediately instead of sitting out the full AdmissionTimeout on the
// server's base context and then executing for nobody.
func TestAdmissionBoundByRequestContext(t *testing.T) {
	s, hs := newTestServer(t, Config{MaxConcurrent: 1, AdmissionTimeout: 30 * time.Second})

	// Occupy the only slot so the query below queues at admission.
	release, err := s.qos.Admit(context.Background(), "blocker")
	if err != nil {
		t.Fatalf("blocker admit: %v", err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	body := `{"graph":"corpus:planted-a","k":2,"q":6,"mode":"count"}`
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, hs.URL+"/query", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	done := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		done <- err
	}()

	// Wait until the request is genuinely queued behind the blocker.
	waitFor(t, 5*time.Second, "query never queued at admission", func() bool {
		for _, ts := range s.qos.Snapshot() {
			if ts.Queued > 0 {
				return true
			}
		}
		return false
	})

	cancel()
	if err := <-done; err == nil {
		t.Fatal("cancelled request unexpectedly succeeded")
	}
	// The admission waiter must unwind with the client, long before the
	// 30s AdmissionTimeout.
	waitFor(t, 5*time.Second, "admission waiter survived its client", func() bool {
		for _, ts := range s.qos.Snapshot() {
			if ts.Queued > 0 {
				return false
			}
		}
		return true
	})

	// Freeing the slot must not resurrect the abandoned query.
	release()
	time.Sleep(100 * time.Millisecond)
	if got := s.met.Executions.Load(); got != 0 {
		t.Fatalf("abandoned query executed: executions = %d, want 0", got)
	}
}

func waitFor(t *testing.T, timeout time.Duration, msg string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal(msg)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestRetryAfterOn429 checks that both overload flavours — admission
// timeout under capacity pressure and a tenant quota denial — answer 429
// with a Retry-After hint the client can act on.
func TestRetryAfterOn429(t *testing.T) {
	t.Run("capacity", func(t *testing.T) {
		s, hs := newTestServer(t, Config{MaxConcurrent: 1, AdmissionTimeout: 50 * time.Millisecond})
		release, err := s.qos.Admit(context.Background(), "blocker")
		if err != nil {
			t.Fatal(err)
		}
		defer release()
		resp, _ := postQoS(t, hs.URL, "", `{"graph":"corpus:planted-a","k":2,"q":6,"mode":"count"}`)
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("status = %d, want 429", resp.StatusCode)
		}
		assertRetryAfter(t, resp)
	})

	t.Run("quota", func(t *testing.T) {
		_, hs := newTestServer(t, Config{
			Tenants: []qos.TenantConfig{{Name: "metered", Rate: 0.01, Burst: 1}},
		})
		// The single burst token pays for the first query; the second
		// distinct query must be refused with the refill time.
		resp, _ := postQoS(t, hs.URL, "metered", `{"graph":"corpus:planted-a","k":2,"q":6,"mode":"count"}`)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("first query: status = %d, want 200", resp.StatusCode)
		}
		resp, _ = postQoS(t, hs.URL, "metered", `{"graph":"corpus:planted-a","k":3,"q":7,"mode":"count"}`)
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("second query: status = %d, want 429", resp.StatusCode)
		}
		assertRetryAfter(t, resp)

		// An unlisted tenant is not throttled by the metered tenant's bucket.
		resp, _ = postQoS(t, hs.URL, "other", `{"graph":"corpus:planted-a","k":3,"q":7,"mode":"count"}`)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("unmetered tenant: status = %d, want 200", resp.StatusCode)
		}
	})
}

func assertRetryAfter(t *testing.T, resp *http.Response) {
	t.Helper()
	ra := resp.Header.Get("Retry-After")
	if ra == "" {
		t.Fatal("429 without Retry-After header")
	}
	secs, err := strconv.Atoi(ra)
	if err != nil {
		t.Fatalf("Retry-After %q is not an integer: %v", ra, err)
	}
	if secs < 1 || secs > 60 {
		t.Fatalf("Retry-After = %d, want within [1, 60]", secs)
	}
}

// TestDeadlinePartialWithResume drives the graceful-degradation path end
// to end: a deadline too short for the enumeration must yield HTTP 200
// with partial:true, a count that is a lower bound on the exact answer,
// the completed-seed fraction, and a resume job that finishes the work
// and converges on the exact result.
func TestDeadlinePartialWithResume(t *testing.T) {
	dir := t.TempDir()
	// ~0.5s of enumeration single-threaded (several times that under the
	// race detector).
	g := gen.GNP(150, 0.3, 9)
	if err := graph.WriteFormatFile(filepath.Join(dir, "slow.bin"), g, graph.FormatBinary); err != nil {
		t.Fatal(err)
	}
	// Measure this host's seed-completion profile with the server's
	// options and set the deadline at the geometric mean of the first
	// seed's completion and the whole walk's. It then lands mid-walk with
	// the same wide margin on either side, however fast the host is and
	// whether or not the build is instrumented.
	opts := kplex.NewOptions(2, 6)
	opts.Threads = 1
	p, err := kplex.Prepare(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	var first time.Duration
	start := time.Now()
	opts.OnSeedDone = func(int, kplex.Stats) {
		if first == 0 {
			first = time.Since(start)
		}
	}
	if _, err := kplex.RunPrepared(context.Background(), p, opts); err != nil {
		t.Fatal(err)
	}
	walk := time.Since(start)
	deadlineMS := max(1, int(math.Sqrt(float64(first)*float64(walk))/float64(time.Millisecond)))
	t.Logf("first seed %v, whole walk %v: deadline %dms", first, walk, deadlineMS)

	_, hs := newTestServer(t, Config{
		DataDir:        dir,
		JobsDir:        filepath.Join(dir, "jobs"),
		DefaultThreads: 1,
	})

	resp, partial := postQoS(t, hs.URL, "gold",
		fmt.Sprintf(`{"graph":"slow.bin","k":2,"q":6,"mode":"count","deadlineMs":%d}`, deadlineMS))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("deadline query: status = %d, want 200", resp.StatusCode)
	}
	if !partial.Partial {
		t.Fatalf("deadline query completed inside %dms; expected partial:true", deadlineMS)
	}
	if partial.SeedsDone <= 0 || partial.SeedsDone >= partial.TotalSeeds {
		t.Fatalf("seedsDone = %d of %d, want strictly between", partial.SeedsDone, partial.TotalSeeds)
	}
	wantFrac := float64(partial.SeedsDone) / float64(partial.TotalSeeds)
	if math.Abs(partial.SeedFraction-wantFrac) > 1e-9 {
		t.Fatalf("seedFraction = %v, want %v", partial.SeedFraction, wantFrac)
	}
	if partial.ResumeJob == nil {
		t.Fatal("partial answer carries no resume job")
	}
	if partial.ResumeJob.SeedsDone != partial.SeedsDone || partial.ResumeJob.TotalSeeds != partial.TotalSeeds {
		t.Fatalf("resume job progress %d/%d does not match the partial answer %d/%d",
			partial.ResumeJob.SeedsDone, partial.ResumeJob.TotalSeeds, partial.SeedsDone, partial.TotalSeeds)
	}
	if partial.ResumeJob.Spec.Tenant != "gold" {
		t.Fatalf("resume job tenant = %q, want %q", partial.ResumeJob.Spec.Tenant, "gold")
	}

	// The resume job finishes the remaining seeds and lands on the exact
	// answer.
	var result jobs.Result
	waitFor(t, 60*time.Second, "resume job never reached a terminal state", func() bool {
		r, err := http.Get(hs.URL + "/jobs/" + partial.ResumeJob.ID)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Body.Close()
		var v jobs.View
		if err := json.NewDecoder(r.Body).Decode(&v); err != nil {
			t.Fatal(err)
		}
		if v.State == jobs.StateFailed || v.State == jobs.StateCancelled {
			t.Fatalf("resume job ended %s: %s", v.State, v.Error)
		}
		return v.State == jobs.StateDone
	})
	r, err := http.Get(hs.URL + "/jobs/" + partial.ResumeJob.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	if err := json.NewDecoder(r.Body).Decode(&result); err != nil {
		t.Fatal(err)
	}

	// Exact reference: the same cell without a deadline (partials never
	// warm the cache, so this runs the full enumeration).
	resp, exact := postQoS(t, hs.URL, "", `{"graph":"slow.bin","k":2,"q":6,"mode":"count"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("exact query: status = %d", resp.StatusCode)
	}
	if exact.Partial || exact.Cached {
		t.Fatalf("exact query partial=%v cached=%v, want fresh full run", exact.Partial, exact.Cached)
	}
	if partial.Count <= 0 || partial.Count >= exact.Count {
		t.Fatalf("partial count = %d, want a nonzero lower bound below exact %d", partial.Count, exact.Count)
	}
	if result.Count != exact.Count {
		t.Fatalf("resumed job count = %d, exact = %d", result.Count, exact.Count)
	}
	if result.MaxSize != exact.MaxSize {
		t.Fatalf("resumed job maxSize = %d, exact = %d", result.MaxSize, exact.MaxSize)
	}
}

// TestSampledQueryEstimates checks the sampling mode end to end against a
// golden cell: deterministic estimate with a self-consistent confidence
// interval, cache separation from the exact result, and an exact answer
// that stays exact afterwards.
func TestSampledQueryEstimates(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	want := readGolden(t, "planted-a", 2, 6)

	body := `{"graph":"corpus:planted-a","k":2,"q":6,"mode":"count","sample":0.5}`
	resp, est := postQoS(t, hs.URL, "", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sampled query: status = %d", resp.StatusCode)
	}
	if est.Sample == nil {
		t.Fatal("sampled query returned no sample detail")
	}
	if est.Sample.Rate < 0.5 || est.Sample.Rate > 1 {
		t.Fatalf("effective rate = %v, want within [0.5, 1]", est.Sample.Rate)
	}
	if est.Sample.SampledSeeds <= 0 || est.Sample.SampledSeeds > est.Sample.TotalSeeds {
		t.Fatalf("sampledSeeds = %d of %d", est.Sample.SampledSeeds, est.Sample.TotalSeeds)
	}
	if est.Count != int64(math.Round(est.Sample.Count)) {
		t.Fatalf("count %d does not round the estimate %v", est.Count, est.Sample.Count)
	}
	if est.Sample.CI95Lo > est.Sample.Count || est.Sample.Count > est.Sample.CI95Hi {
		t.Fatalf("estimate %v outside its own CI [%v, %v]", est.Sample.Count, est.Sample.CI95Lo, est.Sample.CI95Hi)
	}
	// Half the seed space sampled: the estimate must land in the right
	// neighbourhood of the exact count (deterministic: fixed salt).
	relErr := math.Abs(est.Sample.Count-float64(want.Count)) / float64(want.Count)
	if relErr > 0.5 {
		t.Fatalf("estimate %v vs exact %d: relative error %v > 0.5", est.Sample.Count, want.Count, relErr)
	}

	// Identical sampled query: served from the cache under its own key.
	resp, again := postQoS(t, hs.URL, "", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("repeat sampled query: status = %d", resp.StatusCode)
	}
	if !again.Cached || again.Count != est.Count {
		t.Fatalf("repeat sampled query cached=%v count=%d, want cached copy of %d", again.Cached, again.Count, est.Count)
	}

	// The exact query is a different cache entry and stays exact.
	resp, exact := postQoS(t, hs.URL, "", `{"graph":"corpus:planted-a","k":2,"q":6,"mode":"count"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("exact query: status = %d", resp.StatusCode)
	}
	if exact.Cached || exact.Sample != nil {
		t.Fatalf("exact query cached=%v sample=%v, want fresh exact run", exact.Cached, exact.Sample)
	}
	if exact.Count != want.Count {
		t.Fatalf("exact count = %d, golden %d", exact.Count, want.Count)
	}
}

// TestSampledHistogramEstimates checks the scaled histogram payload.
func TestSampledHistogramEstimates(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	want := readGolden(t, "planted-a", 2, 6)
	resp, est := postQoS(t, hs.URL, "",
		`{"graph":"corpus:planted-a","k":2,"q":6,"mode":"histogram","sample":0.5}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if est.Sample == nil || len(est.Histogram) == 0 {
		t.Fatalf("sample=%v histogram=%v, want both populated", est.Sample, est.Histogram)
	}
	var sum int64
	for _, c := range est.Histogram {
		sum += c
	}
	// Scaled bucket counts should reconstruct the estimated total within
	// rounding slack (one unit per bucket).
	if diff := sum - est.Count; diff < -int64(len(est.Histogram)) || diff > int64(len(est.Histogram)) {
		t.Fatalf("scaled histogram sums to %d, estimate %d", sum, est.Count)
	}
	if relErr := math.Abs(float64(sum-want.Count)) / float64(want.Count); relErr > 0.5 {
		t.Fatalf("scaled histogram total %d vs exact %d: relative error %v", sum, want.Count, relErr)
	}
}

// TestSampledCensusExact pins the per-seed count path exactly: a
// "sample":1 query enumerates every seed group, so on each golden cell its
// count and histogram must equal the exact answer and its CI must have
// zero width.
func TestSampledCensusExact(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	for _, cell := range []struct {
		name string
		k, q int
	}{{"planted-a", 2, 6}, {"ba-hubs", 2, 6}, {"chunglu-tail", 3, 8}} {
		want := readGolden(t, cell.name, cell.k, cell.q)
		body := func(mode, extra string) string {
			return fmt.Sprintf(`{"graph":"corpus:%s","k":%d,"q":%d,"mode":%q%s}`, cell.name, cell.k, cell.q, mode, extra)
		}
		resp, exact := postQoS(t, hs.URL, "", body("histogram", ""))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: exact histogram: status = %d", cell.name, resp.StatusCode)
		}
		for _, mode := range []string{"count", "histogram"} {
			label := fmt.Sprintf("%s k=%d q=%d %s", cell.name, cell.k, cell.q, mode)
			resp, est := postQoS(t, hs.URL, "", body(mode, `,"sample":1`))
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%s: status = %d", label, resp.StatusCode)
			}
			sm := est.Sample
			if sm == nil {
				t.Fatalf("%s: no sample detail", label)
			}
			if sm.Rate != 1 || sm.SampledSeeds != sm.TotalSeeds {
				t.Fatalf("%s: rate %v, %d of %d seeds, want a census", label, sm.Rate, sm.SampledSeeds, sm.TotalSeeds)
			}
			if est.Count != want.Count || sm.RawCount != want.Count {
				t.Fatalf("%s: count %d raw %d, golden %d", label, est.Count, sm.RawCount, want.Count)
			}
			if sm.StdErr != 0 || sm.CI95Lo != sm.Count || sm.CI95Hi != sm.Count {
				t.Fatalf("%s: stdErr %v CI [%v, %v], want zero width at %v", label, sm.StdErr, sm.CI95Lo, sm.CI95Hi, sm.Count)
			}
			if est.MaxSize != want.MaxSize {
				t.Fatalf("%s: maxSize %d, golden %d", label, est.MaxSize, want.MaxSize)
			}
			if mode == "histogram" && !reflect.DeepEqual(est.Histogram, exact.Histogram) {
				t.Fatalf("%s: histogram %v, exact %v", label, est.Histogram, exact.Histogram)
			}
		}
		var sum int64
		for _, c := range exact.Histogram {
			sum += c
		}
		if sum != want.Count {
			t.Fatalf("%s: exact histogram sums to %d, golden %d", cell.name, sum, want.Count)
		}
	}
}

// TestSampleValidation pins the request-validation rules for sampling.
func TestSampleValidation(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	for _, bad := range []string{
		`{"graph":"corpus:planted-a","k":2,"q":6,"mode":"count","sample":1.5}`,
		`{"graph":"corpus:planted-a","k":2,"q":6,"mode":"count","sample":-0.1}`,
		`{"graph":"corpus:planted-a","k":2,"q":6,"mode":"topk","sample":0.5}`,
		`{"graph":"corpus:planted-a","k":2,"q":6,"mode":"count","sample":0.5,"deadlineMs":100}`,
		`{"graph":"corpus:planted-a","k":2,"q":6,"mode":"count","deadlineMs":-5}`,
	} {
		resp, _ := postQoS(t, hs.URL, "", bad)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", bad, resp.StatusCode)
		}
	}
}

// TestStatsTenantSnapshot checks that /stats exposes the per-tenant QoS
// view and that header-supplied tenants are sanitized into it.
func TestStatsTenantSnapshot(t *testing.T) {
	_, hs := newTestServer(t, Config{
		Tenants: []qos.TenantConfig{{Name: "gold", Weight: 3}},
	})
	resp, _ := postQoS(t, hs.URL, "gold", `{"graph":"corpus:planted-a","k":2,"q":6,"mode":"count"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	resp, _ = postQoS(t, hs.URL, "has space!", `{"graph":"corpus:planted-a","k":3,"q":7,"mode":"count"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}

	r, err := http.Get(hs.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	var out struct {
		Tenants []qos.TenantSnapshot `json:"tenants"`
	}
	if err := json.NewDecoder(r.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	byName := map[string]qos.TenantSnapshot{}
	for _, ts := range out.Tenants {
		byName[ts.Name] = ts
	}
	gold, ok := byName["gold"]
	if !ok {
		t.Fatalf("tenant gold missing from /stats tenants: %v", out.Tenants)
	}
	if gold.Weight != 3 || gold.Admitted < 1 {
		t.Fatalf("gold snapshot = %+v, want weight 3 and at least one admission", gold)
	}
	if _, ok := byName["has_space_"]; !ok {
		t.Fatalf("sanitized tenant missing from /stats tenants: %v", out.Tenants)
	}
}

// TestTenantMetricsExposed checks the Prometheus endpoint publishes the
// per-tenant families with sanitized label values.
func TestTenantMetricsExposed(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	resp, _ := postQoS(t, hs.URL, "acme", `{"graph":"corpus:planted-a","k":2,"q":6,"mode":"count"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	r, err := http.Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	data, err := io.ReadAll(r.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(data)
	for _, want := range []string{
		`kplexd_tenant_queries_total{tenant="acme"} 1`,
		`kplexd_tenant_admitted_total{tenant="acme"} 1`,
		`kplexd_tenant_admission_wait_seconds_count{tenant="acme"}`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics output missing %q", want)
		}
	}
}
