package server

// Tests for cost-based query routing: the EWMA calibrator, the
// prediction-tier tuner, request validation of scheduler=auto /
// route=auto, and the end-to-end 202-with-manifest path against a real
// job subsystem.

import (
	"context"
	"encoding/json"
	"math"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/jobs"
	"repro/internal/kplex"
)

// routerTestFeatures is an arbitrary mid-range feature vector; the
// calibrator's behaviour must not depend on which one we pick.
var routerTestFeatures = kplex.CostFeatures{
	N: 500, M: 20000, K: 2, Q: 10,
	ActiveSeeds: 400, AvgLaterDeg: 30, MaxLaterDeg: 60,
}

// TestCostRouterCalibration: a machine that is consistently 10× slower
// than the fitted model must pull predictions up by ~10× — the first
// observation seeds the bias outright, repeats keep it there.
func TestCostRouterCalibration(t *testing.T) {
	cr := newCostRouter()
	raw := cr.model.Predict(routerTestFeatures)
	if cr.predict(routerTestFeatures) != raw.Truncate(0) && math.Abs(cr.predict(routerTestFeatures).Seconds()-raw.Seconds()) > 1e-9 {
		t.Fatalf("cold router predict %v != raw model %v", cr.predict(routerTestFeatures), raw)
	}

	for i := 0; i < 8; i++ {
		cr.observe(routerTestFeatures, time.Duration(10*raw.Seconds()*float64(time.Second)))
	}
	if got := cr.observations(); got != 8 {
		t.Fatalf("observations = %d, want 8", got)
	}
	ratio := cr.predict(routerTestFeatures).Seconds() / raw.Seconds()
	if ratio < 9 || ratio > 11 {
		t.Fatalf("calibrated/raw ratio = %.2f, want ~10", ratio)
	}

	// A different feature vector is scaled by the same learned bias: the
	// correction is a hardware offset, not a per-query memo.
	other := routerTestFeatures
	other.ActiveSeeds = 40
	otherRatio := cr.predict(other).Seconds() / cr.model.Predict(other).Seconds()
	if otherRatio < 9 || otherRatio > 11 {
		t.Fatalf("bias not shared across features: ratio %.2f", otherRatio)
	}

	// Non-positive elapsed must not produce log(0).
	cr.observe(routerTestFeatures, 0)
	if d := cr.predict(routerTestFeatures); d < time.Microsecond || d > 24*time.Hour {
		t.Fatalf("predict after zero-elapsed observation out of range: %v", d)
	}
}

func TestTuneForTiers(t *testing.T) {
	cases := []struct {
		name    string
		pred    time.Duration
		threads int // explicit request, 0 = let the tuner pick
		wantTh  int
		wantTau time.Duration
	}{
		{"cheap-sequential", 10 * time.Millisecond, 0, 1, 0},
		{"mid", 500 * time.Millisecond, 0, 8, 2 * time.Millisecond},
		{"long", 10 * time.Second, 0, 8, time.Millisecond},
		{"explicit-threads-honoured", 10 * time.Millisecond, 4, 4, 2 * time.Millisecond},
		{"explicit-one-thread", 10 * time.Second, 1, 1, 0},
	}
	for _, tc := range cases {
		opts := kplex.NewOptions(2, 8)
		opts.Threads = tc.threads
		if opts.Threads <= 0 {
			opts.Threads = 8
		}
		tuneFor(tc.pred, tc.threads, 8, &opts)
		if opts.Threads != tc.wantTh || opts.TaskTimeout != tc.wantTau {
			t.Errorf("%s: got threads=%d tau=%v, want %d/%v",
				tc.name, opts.Threads, opts.TaskTimeout, tc.wantTh, tc.wantTau)
		}
	}
}

func TestParseOptionsRouting(t *testing.T) {
	s, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	ok := queryRequest{Graph: "corpus:planted-a", K: 2, Q: 6, Mode: "count", Scheduler: "auto", Route: "auto"}
	if _, err := s.parseOptions(&ok); err != nil {
		t.Fatalf("scheduler=auto route=auto rejected: %v", err)
	}
	badRoute := ok
	badRoute.Route = "maybe"
	if _, err := s.parseOptions(&badRoute); err == nil {
		t.Fatal("route=maybe accepted, want error")
	}
	streamAuto := ok
	streamAuto.Mode = "stream"
	if _, err := s.parseOptions(&streamAuto); err == nil {
		t.Fatal("route=auto with mode=stream accepted, want error")
	}
}

// TestRouteAutoAsync drives the full path: with the async threshold at
// 1ns every route=auto query is predicted-expensive, so POST /query
// answers 202 with a durable job manifest whose result matches the
// synchronous answer.
func TestRouteAutoAsync(t *testing.T) {
	s, hs := newTestServer(t, Config{JobsDir: t.TempDir(), RouteAsyncThreshold: time.Nanosecond})

	resp, body := postJSON(t, hs.URL+"/query",
		`{"graph":"corpus:planted-a","k":2,"q":6,"mode":"count","route":"auto","scheduler":"auto"}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("route=auto under 1ns threshold = %d (%s), want 202", resp.StatusCode, body)
	}
	var acc struct {
		Job         jobs.Manifest `json:"job"`
		PredictedMs float64       `json:"predictedMs"`
	}
	if err := json.Unmarshal(body, &acc); err != nil || acc.Job.ID == "" {
		t.Fatalf("202 body %s: %v", body, err)
	}
	if acc.PredictedMs <= 0 {
		t.Fatalf("predictedMs = %v, want > 0", acc.PredictedMs)
	}
	if acc.Job.Spec.Scheduler != "" {
		t.Fatalf("async job from scheduler=auto got scheduler %q, want the default", acc.Job.Spec.Scheduler)
	}

	v, err := s.Jobs().Wait(t.Context(), acc.Job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if v.State != jobs.StateDone {
		t.Fatalf("routed job ended %s (%s)", v.State, v.Error)
	}
	res, err := s.Jobs().Result(acc.Job.ID)
	if err != nil {
		t.Fatal(err)
	}
	code, q := postQuery(t, hs.URL, `{"graph":"corpus:planted-a","k":2,"q":6,"mode":"count"}`)
	if code != http.StatusOK {
		t.Fatalf("sync query = %d", code)
	}
	if res.Count != q.Count {
		t.Fatalf("routed job count %d != sync count %d", res.Count, q.Count)
	}

	m := stats(t, hs.URL)
	if m["routed_async"] != 1 {
		t.Fatalf("routed_async = %d, want 1", m["routed_async"])
	}
	// The completed job and the sync query both fed the calibrator.
	if m["cost_observations"] < 2 {
		t.Fatalf("cost_observations = %d, want >= 2", m["cost_observations"])
	}
}

// TestRouteAutoFallsThroughSync: with the default (30s) threshold the
// corpus queries are predicted far cheaper, so route=auto answers
// synchronously, and scheduler=auto tunes in place instead.
func TestRouteAutoFallsThroughSync(t *testing.T) {
	_, hs := newTestServer(t, Config{JobsDir: t.TempDir()})

	code, q := postQuery(t, hs.URL,
		`{"graph":"corpus:planted-a","k":2,"q":6,"mode":"count","route":"auto","scheduler":"auto"}`)
	if code != http.StatusOK {
		t.Fatalf("route=auto under default threshold = %d, want 200", code)
	}
	if q.Count == 0 {
		t.Fatal("sync answer has zero count")
	}
	m := stats(t, hs.URL)
	if m["routed_async"] != 0 {
		t.Fatalf("routed_async = %d, want 0", m["routed_async"])
	}
	if m["auto_tuned"] != 1 {
		t.Fatalf("auto_tuned = %d, want 1", m["auto_tuned"])
	}
	if m["cost_observations"] != 1 {
		t.Fatalf("cost_observations = %d, want 1", m["cost_observations"])
	}

	// route=auto without the job subsystem: always sync, never an error.
	_, hs2 := newTestServer(t, Config{RouteAsyncThreshold: time.Nanosecond})
	code, _ = postQuery(t, hs2.URL,
		`{"graph":"corpus:planted-a","k":2,"q":6,"mode":"count","route":"auto"}`)
	if code != http.StatusOK {
		t.Fatalf("route=auto without jobs = %d, want 200", code)
	}
}

// TestRouteAutoAdmitsBeforePrologue: a route=auto query resolves the
// prologue its routing decision reads inside the prepare stage, after
// admission. With every enumeration slot held, a cold route=auto query
// refused at admission (429) or abandoned there by its client computes no
// prologue; once a slot is free it pays exactly one.
func TestRouteAutoAdmitsBeforePrologue(t *testing.T) {
	const body = `{"graph":"corpus:planted-a","k":2,"q":6,"mode":"count","route":"auto"}`
	t.Run("refused", func(t *testing.T) {
		s, hs := newTestServer(t, Config{JobsDir: t.TempDir(), MaxConcurrent: 1, AdmissionTimeout: 50 * time.Millisecond})
		release, err := s.qos.Admit(context.Background(), "blocker")
		if err != nil {
			t.Fatal(err)
		}
		if code, _ := postQuery(t, hs.URL, body); code != http.StatusTooManyRequests {
			t.Fatalf("status %d with every slot held, want 429", code)
		}
		if m := stats(t, hs.URL); m["prepared_misses"] != 0 {
			t.Fatalf("prepared_misses = %d after a refused route=auto query, want 0", m["prepared_misses"])
		}
		release()
		if code, _ := postQuery(t, hs.URL, body); code != http.StatusOK {
			t.Fatalf("status %d with a free slot, want 200", code)
		}
		if m := stats(t, hs.URL); m["prepared_misses"] != 1 || m["prepared_hits"] != 0 {
			t.Fatalf("prepared_misses=%d prepared_hits=%d for one answered route=auto query, want 1 and 0",
				m["prepared_misses"], m["prepared_hits"])
		}
	})
	t.Run("abandoned", func(t *testing.T) {
		s, hs := newTestServer(t, Config{JobsDir: t.TempDir(), MaxConcurrent: 1, AdmissionTimeout: 30 * time.Second})
		release, err := s.qos.Admit(context.Background(), "blocker")
		if err != nil {
			t.Fatal(err)
		}
		defer release()
		ctx, cancel := context.WithCancel(context.Background())
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, hs.URL+"/query", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan error, 1)
		go func() {
			resp, err := http.DefaultClient.Do(req)
			if err == nil {
				resp.Body.Close()
			}
			done <- err
		}()
		queued := func() bool { return queuedAtAdmission(s) }
		waitFor(t, 5*time.Second, "query never queued at admission", queued)
		cancel()
		<-done
		waitFor(t, 5*time.Second, "admission waiter survived its client", func() bool { return !queued() })
		if m := stats(t, hs.URL); m["prepared_misses"] != 0 {
			t.Fatalf("prepared_misses = %d after an abandoned route=auto query, want 0", m["prepared_misses"])
		}
	})
}

// queuedAtAdmission reports whether any request waits for an admission
// slot on s.
func queuedAtAdmission(s *Server) bool {
	for _, ts := range s.qos.Snapshot() {
		if ts.Queued > 0 {
			return true
		}
	}
	return false
}

// TestSchedulerAutoOnBoundedQueries: scheduler=auto is tuned on the
// shared prepare-and-run path, so the bounded-answer modes honour it like
// the plain query above. Only a complete run calibrates the cost model:
// the sampled run walks a strict subset of gnp-dense's seed groups, and
// the model predicts whole enumerations.
func TestSchedulerAutoOnBoundedQueries(t *testing.T) {
	cases := []struct {
		name    string
		body    string
		wantObs int64
	}{
		{"deadline", `{"graph":"corpus:planted-a","k":2,"q":6,"mode":"count","scheduler":"auto","deadlineMs":600000}`, 1},
		{"sample", `{"graph":"corpus:gnp-dense","k":2,"q":10,"mode":"count","scheduler":"auto","sample":0.05}`, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, hs := newTestServer(t, Config{})
			if code, _ := postQuery(t, hs.URL, tc.body); code != http.StatusOK {
				t.Fatalf("status %d, want 200", code)
			}
			m := stats(t, hs.URL)
			if m["auto_tuned"] != 1 {
				t.Errorf("auto_tuned = %d, want 1", m["auto_tuned"])
			}
			if m["cost_observations"] != tc.wantObs {
				t.Errorf("cost_observations = %d, want %d", m["cost_observations"], tc.wantObs)
			}
		})
	}
}
