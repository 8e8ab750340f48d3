package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/http/httptrace"
	"net/url"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/bench"
	"repro/internal/graph"
	"repro/internal/jobs"
	"repro/internal/kplex"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/store"
)

// The serve workload: an open-loop, seeded Poisson stream of requests
// against an in-process kplexd (server.New behind a loopback httptest
// listener), reads and durable job writes sharing one engine.

// kqCell is one (graph, k, q) cell of the serve key space.
type kqCell struct {
	graph string
	k, q  int
}

// serveSpec sizes the serve workload.
type serveSpec struct {
	graphs      []string // suite graphs; even positions are served as .bin, odd as .kpg
	queryCells  []kqCell // /query keys: each cell in every queryMode
	streamCells []kqCell // /stream: few plexes, so transfer stays small
	batchCells  []kqCell // /batch: the count sweep q, q+1, q+2
	jobCells    []kqCell // durable POST /jobs on light cells
	rate        float64  // arrivals per second
	warmup      time.Duration
	drain       time.Duration // how long jobs get to finish after the last arrival
	// The caches hold about a third of the working set: 90 query keys,
	// 18 query cells and 8 graphs.
	cacheEntries, preparedEntries, maxResident int
}

// goodputLimit is the latency within which an answer counts as good.
const goodputLimit = 500 * time.Millisecond

// zipfS is the key-popularity skew.
const zipfS = 1.1

var queryModes = []struct {
	mode string
	topN int
}{{"count", 0}, {"topk", 5}, {"topk", 10}, {"topk", 50}, {"histogram", 0}}

// classShares are the arrival shares of query, stream, batch and job.
var classShares = []float64{87, 5, 5, 3}

// request is one arrival.
type request struct {
	class string // query, stream, batch or job
	cell  kqCell
	mode  string
	topN  int
}

// keys lists the query keys in popularity order: cell by cell in the
// order of queryCells, every mode of a cell together, so the first graphs
// are hot and the last ones are the tail. The order is fixed, not seeded:
// the working set must not depend on the workload seed.
func (s *serveSpec) keys() []request {
	var out []request
	for _, c := range s.queryCells {
		for _, m := range queryModes {
			out = append(out, request{"query", c, m.mode, m.topN})
		}
	}
	return out
}

func requestsOf(class string, cells []kqCell) []request {
	out := make([]request, len(cells))
	for i, c := range cells {
		out[i] = request{class: class, cell: c}
	}
	return out
}

// phase draws one phase of d: round(rate·d) requests whose class and key
// counts are fixed, in a seeded order at seeded Poisson arrival times.
func (s *serveSpec) phase(rng *rand.Rand, d time.Duration) ([]request, []time.Duration) {
	n := int(math.Round(s.rate * d.Seconds()))
	counts := largestRemainder(n, classShares)
	var reqs []request
	for ci, keys := range [][]request{s.keys(), requestsOf("stream", s.streamCells), requestsOf("batch", s.batchCells), requestsOf("job", s.jobCells)} {
		for ki, c := range zipfCounts(counts[ci], len(keys), zipfS) {
			for ; c > 0; c-- {
				reqs = append(reqs, keys[ki])
			}
		}
	}
	rng.Shuffle(len(reqs), func(i, j int) { reqs[i], reqs[j] = reqs[j], reqs[i] })
	return reqs, arrivals(rng, n, d)
}

// schedule is the warm-up followed by the timed phase, as one arrival
// stream; the first warm requests are the warm-up.
func (s *serveSpec) schedule(seed int64, timed time.Duration) (reqs []request, due []time.Duration, warm int) {
	rng := rand.New(rand.NewSource(seed))
	reqs, due = s.phase(rng, s.warmup)
	tr, td := s.phase(rng, timed)
	for i := range td {
		td[i] += s.warmup
	}
	return append(reqs, tr...), append(due, td...), len(reqs)
}

// cells lists every cell an answer is needed for, with the top-k depth.
func (s *serveSpec) cells() map[kqCell]int {
	out := map[kqCell]int{}
	for _, c := range s.queryCells {
		out[c] = 50
	}
	for _, cs := range [][]kqCell{s.streamCells, s.jobCells} {
		for _, c := range cs {
			out[c] = max(out[c], 0)
		}
	}
	for _, c := range s.batchCells {
		for i := 0; i < 3; i++ {
			sc := kqCell{c.graph, c.k, c.q + i}
			out[sc] = max(out[sc], 0)
		}
	}
	return out
}

// serveEnv is one running kplexd with its served files and answers.
type serveEnv struct {
	srv     *server.Server
	ts      *httptest.Server
	tr      *http.Transport
	client  *http.Client
	file    map[string]string // graph -> served file name
	answers map[kqCell]*answer
	loadMS  float64 // graph.ReadAnyFile / store.OpenFile of every served file
}

// setupServe writes the served graphs under dir and starts kplexd on
// them. With traced, every interactive request is traced into a ring
// large enough for the whole run; otherwise interactive tracing is off.
func setupServe(s *serveSpec, dir string, exp *expectations, traced bool, ringSize int) (*serveEnv, error) {
	dataDir := filepath.Join(dir, "data")
	if err := os.MkdirAll(dataDir, 0o755); err != nil {
		return nil, err
	}
	e := &serveEnv{file: map[string]string{}, answers: map[kqCell]*answer{}}
	need := s.cells()
	for i, name := range s.graphs {
		d, ok := bench.ByName(name)
		if !ok {
			return nil, fmt.Errorf("unknown suite graph %q", name)
		}
		g := d.Build()
		file := name + ".bin"
		if i%2 == 1 {
			file = name + store.StoreExt
		}
		e.file[name] = file
		if err := writeServed(filepath.Join(dataDir, file), g); err != nil {
			return nil, err
		}
		for c, topN := range need {
			if c.graph != name {
				continue
			}
			a, err := exp.get(name, g, c.k, c.q, topN)
			if err != nil {
				return nil, err
			}
			e.answers[c] = a
		}
	}
	for _, file := range e.file {
		start := time.Now()
		if err := loadServed(filepath.Join(dataDir, file)); err != nil {
			return nil, err
		}
		e.loadMS += ms(time.Since(start))
	}
	cfg := server.Config{
		DataDir:           dataDir,
		JobsDir:           filepath.Join(dir, "jobs"),
		MaxResidentGraphs: s.maxResident,
		CacheEntries:      s.cacheEntries,
		PreparedEntries:   s.preparedEntries,
		DefaultThreads:    nproc(),
		TraceSampleEvery:  math.MaxInt32,
		Logf:              func(string, ...any) {},
	}
	if traced {
		cfg.TraceSampleEvery, cfg.TraceCapacity = 1, ringSize
	}
	srv, err := server.New(cfg)
	if err != nil {
		return nil, err
	}
	e.srv = srv
	e.ts = httptest.NewServer(srv.Handler())
	e.tr = &http.Transport{MaxConnsPerHost: nproc(), MaxIdleConnsPerHost: nproc()}
	e.client = &http.Client{Transport: e.tr, Timeout: time.Minute}
	return e, nil
}

func writeServed(path string, g *graph.Graph) error {
	if strings.HasSuffix(path, store.StoreExt) {
		return store.WriteGraphFile(path, g, 0)
	}
	return graph.WriteBinaryFile(path, g)
}

func loadServed(path string) error {
	if strings.HasSuffix(path, store.StoreExt) {
		r, err := store.OpenFile(path)
		if err != nil {
			return err
		}
		return r.Close()
	}
	_, err := graph.ReadAnyFile(path)
	return err
}

// close stops the listener (waiting for in-flight handlers) and kplexd.
func (e *serveEnv) close() {
	e.ts.Close()
	e.srv.Close()
	e.tr.CloseIdleConnections()
}

// reply is what one request brought back.
type reply struct {
	wrong     string
	stats     *kplex.Stats // /query replies the server executed (not cached or shared)
	elapsedMS float64
	jobID     string
}

// send issues r and checks its answer, reporting how long it waited for
// a connection.
func (e *serveEnv) send(r request, out *reply) (time.Duration, error) {
	var getConn, gotConn atomic.Int64
	ctx := httptrace.WithClientTrace(context.Background(), &httptrace.ClientTrace{
		GetConn: func(string) { getConn.Store(time.Now().UnixNano()) },
		GotConn: func(httptrace.GotConnInfo) { gotConn.Store(time.Now().UnixNano()) },
	})
	var err error
	switch r.class {
	case "query":
		err = e.query(ctx, r, out)
	case "stream":
		err = e.stream(ctx, r, out)
	case "batch":
		err = e.batch(ctx, r, out)
	case "job":
		err = e.job(ctx, r, out)
	}
	return time.Duration(max(0, gotConn.Load()-getConn.Load())), err
}

// do sends a request and returns the body of a 2xx reply.
func (e *serveEnv) do(ctx context.Context, method, path string, body any) (*http.Response, error) {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return nil, err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(ctx, method, e.ts.URL+path, rd)
	if err != nil {
		return nil, err
	}
	resp, err := e.client.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return nil, fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(msg))
	}
	return resp, nil
}

func (e *serveEnv) query(ctx context.Context, r request, out *reply) error {
	resp, err := e.do(ctx, "POST", "/query", map[string]any{
		"graph": e.file[r.cell.graph], "k": r.cell.k, "q": r.cell.q, "mode": r.mode, "topn": r.topN,
	})
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var rep struct {
		Count     int64         `json:"count"`
		MaxSize   int           `json:"maxSize"`
		TopK      [][]int       `json:"topk"`
		Histogram map[int]int64 `json:"histogram"`
		Cached    bool          `json:"cached"`
		Shared    bool          `json:"shared"`
		Stats     kplex.Stats   `json:"stats"`
		ElapsedMS float64       `json:"elapsedMs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		return err
	}
	out.wrong = e.answers[r.cell].check(r.mode, r.topN, rep.Count, rep.MaxSize, rep.TopK, rep.Histogram)
	if !rep.Cached && !rep.Shared {
		out.stats, out.elapsedMS = &rep.Stats, rep.ElapsedMS
	}
	return nil
}

// stream reads the NDJSON plex lines and the summary line.
func (e *serveEnv) stream(ctx context.Context, r request, out *reply) error {
	v := url.Values{"graph": {e.file[r.cell.graph]}, "k": {strconv.Itoa(r.cell.k)}, "q": {strconv.Itoa(r.cell.q)}}
	resp, err := e.do(ctx, "GET", "/stream?"+v.Encode(), nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var lines int64
	var sum struct {
		Done  bool  `json:"done"`
		Count int64 `json:"count"`
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	for sc.Scan() {
		if b := sc.Bytes(); len(b) > 0 && b[0] == '[' {
			lines++
		} else if err := json.Unmarshal(b, &sum); err != nil {
			return err
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if want := e.answers[r.cell].Count; !sum.Done || lines != want || sum.Count != want {
		out.wrong = fmt.Sprintf("stream: %d lines, summary %+v, want %d", lines, sum, want)
	}
	return nil
}

// batch sends the count sweep q, q+1, q+2 and checks every item line.
func (e *serveEnv) batch(ctx context.Context, r request, out *reply) error {
	items := make([]map[string]any, 3)
	for i := range items {
		items[i] = map[string]any{"k": r.cell.k, "q": r.cell.q + i, "mode": "count"}
	}
	resp, err := e.do(ctx, "POST", "/batch", map[string]any{"graph": e.file[r.cell.graph], "items": items})
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	seen, done := 0, false
	dec := json.NewDecoder(resp.Body)
	for {
		var line struct {
			Item    *int  `json:"item"`
			K       int   `json:"k"`
			Q       int   `json:"q"`
			Count   int64 `json:"count"`
			MaxSize int   `json:"maxSize"`
			Done    bool  `json:"done"`
		}
		if err := dec.Decode(&line); err == io.EOF {
			break
		} else if err != nil {
			return err
		}
		if line.Item == nil {
			done = line.Done
			continue
		}
		seen++
		if w := e.answers[kqCell{r.cell.graph, line.K, line.Q}].check("count", 0, line.Count, line.MaxSize, nil, nil); w != "" && out.wrong == "" {
			out.wrong = fmt.Sprintf("batch item q=%d: %s", line.Q, w)
		}
	}
	if out.wrong == "" && (seen != len(items) || !done) {
		out.wrong = fmt.Sprintf("batch: %d item lines, done=%v, want %d and done", seen, done, len(items))
	}
	return nil
}

func (e *serveEnv) job(ctx context.Context, r request, out *reply) error {
	resp, err := e.do(ctx, "POST", "/jobs", map[string]any{"graph": e.file[r.cell.graph], "k": r.cell.k, "q": r.cell.q})
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var man struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&man); err != nil {
		return err
	}
	out.jobID = man.ID
	return nil
}

// phaseResult is one serve run: the timed requests and what the process
// did from the start of the timed phase until the drain ended.
type phaseResult struct {
	origin   time.Time // when the timed phase was due to start
	timed    []request
	due      []time.Duration // from origin
	shots    []shot
	replies  []reply
	jobs     map[int]*jobs.View // timed request index -> final job view
	jobWrong map[int]string
	wrong    int // wrong answers, warm-up included
	wall     time.Duration
	cpu      time.Duration
	scale    float64 // host-speed factor of the phase, from the probe (see calibrate.go)
	rt       rtDelta
	heapMiB  float64          // median of the per-second peaks of the live heap
	counters map[string]int64 // server counter deltas
	traces   []obs.TraceData
	loadMS   float64
}

// startSnap is taken when the timed phase begins.
type startSnap struct {
	at       time.Time
	cpu      time.Duration
	rt       rtSnap
	counters map[string]int64
	probe    *probe
}

// runServePhase drives the warm-up and timed phase against e, drains the
// jobs and collects everything the metrics need. The calibration probe
// runs from the start of the timed phase to the end of the drain.
func runServePhase(s *serveSpec, e *serveEnv, ref *reference, seed int64, seconds float64, log io.Writer) (*phaseResult, error) {
	reqs, due, warm := s.schedule(seed, time.Duration(seconds*float64(time.Second)))
	replies := make([]reply, len(reqs))
	heap := startHeapSampler()
	snapc := make(chan startSnap, 1)
	start := time.Now()
	timer := time.AfterFunc(s.warmup, func() {
		heap.reset()
		snapc <- startSnap{time.Now(), processCPU(), readRuntime(), e.srv.Metrics(), ref.startProbe()}
	})
	defer timer.Stop()
	shots := openLoop(start, due, func(i int) (time.Duration, error) { return e.send(reqs[i], &replies[i]) })
	snap := <-snapc

	res := &phaseResult{
		origin:   start.Add(s.warmup),
		timed:    reqs[warm:],
		shots:    shots[warm:],
		replies:  replies[warm:],
		jobs:     map[int]*jobs.View{},
		jobWrong: map[int]string{},
		loadMS:   e.loadMS,
	}
	for _, d := range due[warm:] {
		res.due = append(res.due, d-s.warmup)
	}
	for i, r := range replies {
		if r.wrong != "" {
			res.wrong++
			fmt.Fprintf(log, "WRONG %+v: %s\n", reqs[i], r.wrong)
		}
	}
	// Drain: every job, warm-up ones included, gets until the deadline.
	deadline := time.Now().Add(s.drain)
	for i, r := range replies {
		if r.jobID == "" {
			continue
		}
		v := waitJob(e.srv.Jobs(), r.jobID, deadline)
		if i < warm || v == nil {
			continue
		}
		res.jobs[i-warm] = v
		if v.State != jobs.StateDone {
			continue
		}
		jr, err := e.srv.Jobs().Result(r.jobID)
		if err != nil {
			snap.probe.finish()
			return nil, err
		}
		if w := e.answers[reqs[i].cell].check("count", 0, jr.Count, jr.MaxSize, nil, nil); w != "" {
			res.jobWrong[i-warm] = w
			res.wrong++
			fmt.Fprintf(log, "WRONG job %+v: %s\n", reqs[i], w)
		}
	}
	end := time.Now()
	res.scale = snap.probe.finish()
	fmt.Fprintf(log, "perf: serve phase: probe slowdown %.3f\n", 1/res.scale)
	res.wall = end.Sub(snap.at)
	res.cpu = processCPU() - snap.cpu
	res.rt = snap.rt.to(readRuntime())
	res.heapMiB = heap.finish()
	res.counters = map[string]int64{}
	for k, v := range e.srv.Metrics() {
		res.counters[k] = v - snap.counters[k]
	}
	for _, td := range e.srv.Tracer().Recent(math.MaxInt32) {
		if !td.Start.Before(snap.at) {
			res.traces = append(res.traces, td)
		}
	}
	return res, nil
}

// waitJob polls until the job is terminal or the deadline passes, and
// returns its last view (nil if it vanished).
func waitJob(m *jobs.Manager, id string, deadline time.Time) *jobs.View {
	for {
		v, err := m.Get(id)
		if err != nil {
			return nil
		}
		switch v.State {
		case jobs.StateDone, jobs.StateFailed, jobs.StateCancelled:
			return v
		}
		if time.Now().After(deadline) {
			return v
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// failed counts timed requests that were wrong, refused, errored or,
// for jobs, not done by the end of the drain.
func (p *phaseResult) failed() int {
	n := 0
	for i, r := range p.timed {
		switch {
		case p.shots[i].err != nil || p.replies[i].wrong != "":
			n++
		case r.class == "job" && (p.jobs[i] == nil || p.jobs[i].State != jobs.StateDone || p.jobWrong[i] != ""):
			n++
		}
	}
	return n
}

// syncLatenciesMS returns the latency of every timed non-job request.
func (p *phaseResult) syncLatenciesMS() []float64 {
	var out []float64
	for i, r := range p.timed {
		if r.class != "job" {
			out = append(out, ms(p.shots[i].latency))
		}
	}
	return out
}

// endToEnd reports the timed phase as a client sees it. wall_s is the
// makespan: from the start of the timed phase until its last answer or
// job finished, which grows when the server falls behind the schedule.
// Goodput counts good answers per second of the same span for the sync
// requests. Both follow the arrival schedule and are reported as
// measured. CPU time and p99_ms, which the slowest executions set, are
// CPU work and are scaled by the probe (see calibrate.go). p50_ms is a
// cache hit: a few wake-ups and a loopback round trip, which do not slow
// down with the CPU as the probe does, so it is reported as measured too
// (README.md gives the spreads either way).
func (p *phaseResult) endToEnd(setupS float64) map[string]float64 {
	good := 0
	var syncSpan, jobSpan time.Duration
	for i, r := range p.timed {
		if r.class == "job" {
			if v := p.jobs[i]; v != nil && v.State == jobs.StateDone {
				jobSpan = max(jobSpan, v.FinishedAt.Sub(p.origin))
			}
			continue
		}
		s := p.shots[i]
		syncSpan = max(syncSpan, p.due[i]+s.latency)
		if s.err == nil && p.replies[i].wrong == "" && s.latency <= goodputLimit {
			good++
		}
	}
	lat := p.syncLatenciesMS()
	return map[string]float64{
		"setup_s":       setupS,
		"wall_s":        max(syncSpan, jobSpan).Seconds(),
		"cpu_s":         p.cpu.Seconds() * p.scale,
		"peak_heap_mib": p.heapMiB,
		"p50_ms":        median(lat),
		"p99_ms":        quantile(lat, 0.99) * p.scale,
		"goodput_rps":   float64(good) / syncSpan.Seconds(),
	}
}

// perLayer splits the timed phase by layer: server counters, the server's
// own spans rolled up by name, job manifests, the engine counters of the
// /query replies the server executed, and the load generator itself.
func (p *phaseResult) perLayer() map[string]float64 {
	c := func(name string) float64 { return float64(p.counters[name]) }
	m := map[string]float64{
		"graph.load_ms":             p.loadMS,
		"server.cache_hit_ratio":    ratio(c("cache_hits"), c("cache_hits")+c("cache_misses")),
		"server.prepared_hit_ratio": ratio(c("prepared_hits"), c("prepared_hits")+c("prepared_misses")),
		"server.flight_shared":      c("flight_shared"),
		"server.rejected":           c("rejected"),
		"server.graph_loads":        c("graph_loads"),
		"runtime.alloc_mib":         p.rt.allocMiB,
		"runtime.gc_cycles":         p.rt.gcCycles,
		"runtime.gc_cpu_frac":       ratio(p.rt.gcCPU, p.rt.totalCPU),
		"process.cpu_util":          ratio(p.cpu.Seconds(), p.wall.Seconds()*float64(nproc())),
		"loadgen.requests":          float64(len(p.timed)),
	}
	roll := rollup(p.traces)
	var self []float64
	for _, td := range p.traces {
		if td.Name == "POST /query" {
			self = append(self, selfMS(td))
		}
	}
	m["server.handler_self_ms_p50"] = median(self)
	m["server.admission_wait_ms_p99"] = get(roll, "admission").q(0.99)
	m["server.prepare_ms_sum"] = get(roll, "prepare").sum
	m["server.enumerate_ms_sum"] = get(roll, "enumerate").sum
	m["jobs.checkpoints"] = float64(get(roll, "checkpoint").count())
	m["jobs.checkpoint_ms_sum"] = get(roll, "checkpoint").sum

	var queue, run, e2e []float64
	for i, v := range p.jobs {
		if v.State == jobs.StateDone {
			queue = append(queue, ms(v.StartedAt.Sub(v.CreatedAt)))
			run = append(run, ms(v.FinishedAt.Sub(v.StartedAt)))
			e2e = append(e2e, v.FinishedAt.Sub(p.origin.Add(p.due[i])).Seconds())
		}
	}
	m["jobs.queue_ms_p50"] = median(queue)
	m["jobs.run_ms_p50"] = median(run)
	m["jobs.e2e_p50_s"] = median(e2e)

	var st kplex.Stats
	var elapsed time.Duration
	for _, r := range p.replies {
		if r.stats != nil {
			st.Add(*r.stats)
			elapsed += time.Duration(r.elapsedMS * float64(time.Millisecond))
		}
	}
	engineLayers(m, st, elapsed, nproc())
	engineRatios(m)

	lag := make([]float64, len(p.shots))
	conn := make([]float64, len(p.shots))
	for i, s := range p.shots {
		lag[i], conn[i] = ms(s.lag), ms(s.connWait)
	}
	m["loadgen.lag_p99_ms"] = quantile(lag, 0.99)
	m["loadgen.conn_wait_p99_ms"] = quantile(conn, 0.99)
	return m
}

// runServe is the serve workload: set-up (repeated, for a stable
// setup_s), warm-up and the timed phase. With traced it runs the same
// schedule again against a fresh, fully traced kplexd and reports the
// layers of that second run.
func runServe(c *runConfig) (*outcome, error) {
	spec := serveSpecFor(c.smoke)
	s := &spec
	dir, err := workDir(c.outDir)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	ring := 4*int(s.rate*(s.warmup.Seconds()+c.seconds)) + 64
	var env *serveEnv
	setupS, err := timeSetup(c.cal, func(i int) (err error) {
		if env != nil {
			env.close()
		}
		env, err = setupServe(s, filepath.Join(dir, fmt.Sprint("setup", i)), c.exp, false, ring)
		return err
	})
	if err != nil {
		return nil, err
	}
	plain, err := runServePhase(s, env, c.cal.ref, c.seed, c.seconds, c.log)
	env.close()
	if err != nil {
		return nil, err
	}
	out := &outcome{correct: plain.wrong == 0, attempted: len(plain.timed), failed: plain.failed(), config: map[string]any{
		"rate_rps":            s.rate,
		"warmup_s":            s.warmup.Seconds(),
		"cache_entries":       s.cacheEntries,
		"prepared_entries":    s.preparedEntries,
		"max_resident_graphs": s.maxResident,
		"connections":         nproc(),
	}}
	if !c.traced {
		out.metrics = plain.endToEnd(setupS)
		return out, nil
	}
	if env, err = setupServe(s, filepath.Join(dir, "traced"), c.exp, true, ring); err != nil {
		return nil, err
	}
	traced, err := runServePhase(s, env, c.cal.ref, c.seed, c.seconds, c.log)
	env.close()
	if err != nil {
		return nil, err
	}
	out.correct = out.correct && traced.wrong == 0
	out.attempted += len(traced.timed)
	out.failed += traced.failed()
	out.metrics = traced.perLayer()
	out.metrics["trace.overhead_pct"] = overheadPct(median(traced.syncLatenciesMS()), median(plain.syncLatenciesMS()))
	c.cal.layers(out.metrics)
	out.metrics["host.slowdown"] = 1 / traced.scale
	out.traces = traced.traces
	return out, nil
}

// serveSpecFor is the serve workload of one scale.
func serveSpecFor(smoke bool) serveSpec {
	if smoke {
		return serveSpec{
			graphs:          []string{"jazz-syn", "lastfm-syn"},
			queryCells:      []kqCell{{"jazz-syn", 2, 6}, {"lastfm-syn", 2, 10}, {"lastfm-syn", 3, 14}},
			streamCells:     []kqCell{{"jazz-syn", 2, 6}},
			batchCells:      []kqCell{{"lastfm-syn", 2, 10}},
			jobCells:        []kqCell{{"lastfm-syn", 3, 14}},
			rate:            40,
			warmup:          200 * time.Millisecond,
			drain:           5 * time.Second,
			cacheEntries:    5,
			preparedEntries: 1,
			maxResident:     1,
		}
	}
	return serveSpec{
		graphs: []string{"lastfm-syn", "dblp-syn", "email-syn", "epinions-syn", "as-caida-syn", "straggler-syn", "amazon-syn", "jazz-syn"},
		// Misses cost about 1-15 ms. Each execution holds one of the
		// client's nproc connections, and with dearer cells or a higher
		// rate cache hits queue behind them so often that the median
		// latency swings with host speed.
		queryCells: []kqCell{
			{"lastfm-syn", 2, 10}, {"lastfm-syn", 3, 12}, {"lastfm-syn", 4, 14}, {"lastfm-syn", 2, 12},
			{"dblp-syn", 2, 12}, {"dblp-syn", 4, 14}, {"dblp-syn", 3, 12},
			{"email-syn", 2, 12}, {"email-syn", 4, 18},
			{"epinions-syn", 4, 38}, {"epinions-syn", 4, 40},
			{"as-caida-syn", 2, 12}, {"as-caida-syn", 4, 20},
			{"straggler-syn", 3, 13}, {"straggler-syn", 3, 15},
			{"amazon-syn", 2, 6}, {"jazz-syn", 2, 6}, {"jazz-syn", 3, 8},
		},
		streamCells: []kqCell{
			{"lastfm-syn", 3, 14}, {"dblp-syn", 2, 12}, {"straggler-syn", 3, 15},
			{"amazon-syn", 2, 6}, {"lastfm-syn", 4, 16}, {"epinions-syn", 4, 40},
		},
		batchCells:      []kqCell{{"lastfm-syn", 2, 12}, {"dblp-syn", 4, 14}, {"lastfm-syn", 3, 14}, {"epinions-syn", 4, 38}},
		jobCells:        []kqCell{{"dblp-syn", 3, 12}, {"lastfm-syn", 2, 10}, {"email-syn", 2, 12}, {"as-caida-syn", 2, 12}},
		rate:            56,
		warmup:          5 * time.Second,
		drain:           10 * time.Second,
		cacheEntries:    30,
		preparedEntries: 6,
		maxResident:     3,
	}
}
