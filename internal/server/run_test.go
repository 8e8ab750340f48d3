package server

// Tests of the prepare-and-run path that every enumerating request shares:
// one trace shape and phase-timed Stats across query modes, deadline,
// sample, stream, batch, job and leased range.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/jobs"
	"repro/internal/kplex"
	"repro/internal/obs"
)

// replyStats decodes the Stats a reply carries: the /query body's, every
// executed item's in a /batch NDJSON reply, or a /cluster/run range's
// aggregate. A stream carries none.
func replyStats(t *testing.T, path string, data []byte) []kplex.Stats {
	t.Helper()
	var out []kplex.Stats
	if path == "/query" {
		var body struct{ Stats kplex.Stats }
		if err := json.Unmarshal(data, &body); err != nil {
			t.Fatalf("bad /query body %s: %v", data, err)
		}
		return append(out, body.Stats)
	}
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var line struct {
			Stats *kplex.Stats
			Agg   *kplex.Aggregate
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("bad NDJSON line %s: %v", sc.Bytes(), err)
		}
		switch {
		case line.Stats != nil:
			out = append(out, *line.Stats)
		case line.Agg != nil:
			out = append(out, line.Agg.Stats)
		}
	}
	return out
}

// TestPrepareRunTraceContract: every request that enumerates runs the same
// path, so every one leaves the same evidence — a trace whose admission
// span starts before its first prepare span, prepare span(s) that end
// before its enumerate span, and phase times wherever the reply returns
// Stats. A job's trace is the one its manifest names; a leased range's is
// the share the worker ships back on its Done line.
func TestPrepareRunTraceContract(t *testing.T) {
	g := gen.CorpusGraphByName("planted-a").Build()
	p, err := kplex.Prepare(g, kplex.NewOptions(2, 6))
	if err != nil {
		t.Fatal(err)
	}
	rangeBody := fmt.Sprintf(`{"graph":"corpus:planted-a","digest":%q,"k":2,"q":6,"topn":5,"totalSeeds":%d,"hi":%d}`,
		graph.DigestHexOf(g), p.SeedSpace(), p.SeedSpace())
	cases := []struct {
		name, path, body string
		stats            bool // the reply returns engine Stats
		prepares         int  // one prepare span per prologue: a batch resolves one per group
		jobs             bool // the job subsystem is on, so route=auto can decide
	}{
		{"count", "/query", `{"graph":"corpus:planted-a","k":2,"q":6,"mode":"count"}`, true, 1, false},
		{"topk", "/query", `{"graph":"corpus:planted-a","k":2,"q":6,"mode":"topk","topn":3}`, true, 1, false},
		{"histogram", "/query", `{"graph":"corpus:planted-a","k":2,"q":6,"mode":"histogram"}`, true, 1, false},
		{"deadline-beaten", "/query", `{"graph":"corpus:planted-a","k":2,"q":6,"mode":"count","deadlineMs":600000}`, true, 1, false},
		{"sample", "/query", `{"graph":"corpus:planted-a","k":2,"q":6,"mode":"count","sample":0.5}`, true, 1, false},
		{"stream", "/query", `{"graph":"corpus:planted-a","k":2,"q":6,"mode":"stream"}`, false, 1, false},
		{"batch", "/batch", `{"graph":"corpus:planted-a","items":[{"k":2,"q":6,"mode":"count"},{"k":3,"q":8,"mode":"histogram"}]}`, true, 2, false},
		{"batch-auto", "/batch", `{"graph":"corpus:planted-a","scheduler":"auto","items":[{"k":2,"q":6,"mode":"count"},{"k":3,"q":8,"mode":"histogram"}]}`, true, 2, false},
		// The default 30s async threshold is far above this prediction, so
		// the query answers synchronously on the prologue its routing read.
		{"route-auto", "/query", `{"graph":"corpus:planted-a","k":2,"q":6,"mode":"count","route":"auto"}`, true, 1, true},
		// A job's one prepare span covers every traversal group.
		{"job", "/jobs", `{"graph":"corpus:planted-a","k":2,"q":6}`, false, 1, true},
		{"range", "/cluster/run", rangeBody, true, 1, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var cfg Config
			if tc.jobs {
				cfg.JobsDir = t.TempDir()
			}
			s, hs := newTestServer(t, cfg)
			td, data := contractTrace(t, s, hs.URL, tc.path, tc.body)
			if tc.stats {
				stats := replyStats(t, tc.path, data)
				if len(stats) == 0 {
					t.Fatalf("reply carries no Stats: %s", data)
				}
				for i, st := range stats {
					if st.SeedBuildNS <= 0 || st.BranchNS <= 0 {
						t.Errorf("Stats %d: SeedBuildNS=%d BranchNS=%d, want both > 0", i, st.SeedBuildNS, st.BranchNS)
					}
				}
			}

			prepare, enumerate := -1, -1
			for i, sp := range td.Spans {
				switch {
				case sp.Name == "prepare" && prepare < 0:
					prepare = i
				case sp.Name == "enumerate":
					if enumerate >= 0 {
						t.Errorf("second enumerate span at %d", i)
					}
					enumerate = i
				}
			}
			if prepare < 0 || enumerate < 0 || prepare > enumerate {
				t.Fatalf("want prepare then enumerate spans, got %v", spanNames(td))
			}
			for _, sp := range td.Spans[prepare : enumerate+1] {
				if sp.Status != "ok" {
					t.Errorf("span %q status %q, want ok", sp.Name, sp.Status)
				}
			}
			prepares := spansNamed(td, "prepare")
			if n := len(prepares); n != tc.prepares {
				t.Errorf("%d prepare spans, want %d", n, tc.prepares)
			}
			admissions := spansNamed(td, "admission")
			if len(admissions) != 1 {
				t.Fatalf("%d admission spans, want 1: %v", len(admissions), spanNames(td))
			}
			for _, sp := range prepares {
				if sp.Start.Before(admissions[0].Start) {
					t.Errorf("admission span starts at %v, not before the prepare span at %v", admissions[0].Start, sp.Start)
				}
			}
		})
	}
}

// contractTrace submits one request of TestPrepareRunTraceContract and
// returns its trace and reply body: the X-Trace-Id trace of a /query or
// /batch, the manifest's trace of a completed job, and the spans a leased
// range ships back when the request propagates a trace.
func contractTrace(t *testing.T, s *Server, base, path, body string) (obs.TraceData, []byte) {
	t.Helper()
	switch path {
	case "/jobs":
		resp, data := postJSON(t, base+path, body)
		var man jobs.Manifest
		if resp.StatusCode != http.StatusAccepted || json.Unmarshal(data, &man) != nil {
			t.Fatalf("submit = %d (%s), want 202 with a manifest", resp.StatusCode, data)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		v, err := s.Jobs().Wait(ctx, man.ID)
		if err != nil || v.State != jobs.StateDone {
			t.Fatalf("job: %v (view %+v), want done", err, v)
		}
		return getTrace(t, base, v.TraceID), data
	case "/cluster/run":
		req, err := http.NewRequest(http.MethodPost, base+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set(obs.TraceparentHeader, obs.Traceparent(obs.NewTraceID()))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		data, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, data)
		}
		var td obs.TraceData
		for _, line := range bytes.Split(bytes.TrimSpace(data), []byte("\n")) {
			var rl cluster.RangeLine
			if err := json.Unmarshal(line, &rl); err != nil {
				t.Fatalf("bad NDJSON line %s: %v", line, err)
			}
			if rl.Done {
				td.Spans = rl.Spans
			}
		}
		return td, data
	}
	resp, data := postJSON(t, base+path, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	id := resp.Header.Get("X-Trace-Id")
	if id == "" {
		t.Fatal("no X-Trace-Id header")
	}
	return getTrace(t, base, id), data
}

// TestBatchEnumerateExcludesPrepare: a batch's groups resolve their
// prologues as the walk reaches them, and the one enumerate span must not
// count that time again. From the first prepare span's start to the
// enumerate span's end, the prepare spans and the enumerate span together
// cannot account for more time than passed.
func TestBatchEnumerateExcludesPrepare(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	resp, data := postJSON(t, hs.URL+"/batch",
		`{"graph":"corpus:gnp-dense","items":[{"k":2,"q":10,"mode":"count"},{"k":3,"q":12,"mode":"histogram"}]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	td := getTrace(t, hs.URL, resp.Header.Get("X-Trace-Id"))
	prepares, enums := spansNamed(td, "prepare"), spansNamed(td, "enumerate")
	if len(prepares) != 2 || len(enums) != 1 {
		t.Fatalf("%d prepare and %d enumerate spans, want 2 and 1: %v", len(prepares), len(enums), spanNames(td))
	}
	enum := enums[0]
	end := enum.Start.Add(time.Duration(enum.DurationMS * 1e6))
	first := prepares[0].Start
	sum := enum.DurationMS
	for _, sp := range prepares {
		sum += sp.DurationMS
		if sp.Start.Before(first) {
			first = sp.Start
		}
	}
	window := float64(end.Sub(first)) / 1e6
	if sum > window+0.01 {
		t.Errorf("prepare + enumerate spans sum to %.3f ms over a %.3f ms window: enumerate counts prepare time (enumerate %.3f ms, prepares %.3f and %.3f ms)",
			sum, window, enum.DurationMS, prepares[0].DurationMS, prepares[1].DurationMS)
	}
}

// spanNames lists td's span names in recorded (end) order.
func spanNames(td obs.TraceData) []string {
	names := make([]string, len(td.Spans))
	for i, sp := range td.Spans {
		names[i] = sp.Name
	}
	return names
}

// TestBatchItemsCachePhaseTimes: a batch item's cached result answers a
// later /query with the phase times of the walk that computed it.
func TestBatchItemsCachePhaseTimes(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	if resp, data := postJSON(t, hs.URL+"/batch", `{"graph":"corpus:planted-a","items":[{"k":2,"q":6,"mode":"count"}]}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d: %s", resp.StatusCode, data)
	}
	resp, data := postJSON(t, hs.URL+"/query", `{"graph":"corpus:planted-a","k":2,"q":6,"mode":"count"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query status %d: %s", resp.StatusCode, data)
	}
	var reply struct {
		Cached bool
		Stats  kplex.Stats
	}
	if err := json.Unmarshal(data, &reply); err != nil {
		t.Fatal(err)
	}
	if !reply.Cached || reply.Stats.SeedBuildNS <= 0 || reply.Stats.BranchNS <= 0 {
		t.Fatalf("cached=%v SeedBuildNS=%d BranchNS=%d, want a cache hit with phase times",
			reply.Cached, reply.Stats.SeedBuildNS, reply.Stats.BranchNS)
	}
}
