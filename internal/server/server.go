// Package server is the kplexd query service: a long-running HTTP/JSON
// front end over the enumeration engine. It keeps parsed graphs resident
// in a refcounted, LRU-evictable registry; answers count, top-k and
// histogram queries through a result cache keyed by (graph digest,
// normalized options) with singleflight batching of concurrent identical
// queries; and serves large result sets as NDJSON streams backed by the
// engine's bounded-channel path, so a dropped client cancels the
// enumeration instead of leaking it. Admission control bounds the number
// of concurrent enumerations; excess load is turned away with 429 rather
// than queued without bound.
package server

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net/http"
	"runtime"
	"time"

	"repro/internal/cluster"
	"repro/internal/graph"
	"repro/internal/jobs"
	"repro/internal/kplex"
	"repro/internal/obs"
	"repro/internal/qos"
	"repro/internal/store"
)

// Config tunes a Server. The zero value is usable: every field has a
// default chosen for a small deployment.
type Config struct {
	// DataDir is the directory graph files are served from; empty means
	// only the builtin "corpus:*" graphs are available.
	DataDir string
	// CatalogDir enables the persistent graph catalog: converted store
	// files (*.kpg) registered there are served mmap-backed — a cold open
	// reads only the 4 KiB header, so restart-to-serving is O(1) per graph
	// regardless of size — and computed run prologues are persisted
	// alongside, keyed by content digest × (k, q, ctcp), so a restarted
	// kplexd answers its first repeat query warm instead of re-running the
	// O(n+m) prologue. Empty disables both.
	CatalogDir string
	// MaxResidentGraphs caps the registry (default 8).
	MaxResidentGraphs int
	// CacheEntries caps the result cache (default 256).
	CacheEntries int
	// PreparedEntries caps the prepared-graph cache: resident run
	// prologues (CTCP + core restriction + degeneracy relabelling), keyed
	// by graph digest × reduction options, that let repeat queries and
	// resumed jobs skip straight to enumeration. Each handle holds a
	// relabelled copy comparable in size to its source graph, so the
	// default scales with the registry budget rather than being a fixed
	// count: 4 × MaxResidentGraphs (a few (k, q) cells per resident
	// graph).
	PreparedEntries int
	// MaxConcurrent bounds simultaneously running enumerations, cacheable
	// and streaming alike (default NumCPU, min 2).
	MaxConcurrent int
	// Tenants declares per-tenant QoS profiles (weights, rate quotas,
	// concurrency caps) for the admission controller; requests name their
	// tenant in the X-Kplexd-Tenant header. Tenants not listed here — and
	// every request when the list is empty — get the default profile
	// (weight 1, no quota, no cap), so an unconfigured deployment behaves
	// like a plain MaxConcurrent semaphore. See qos.ParseTenants for the
	// -tenants flag syntax.
	Tenants []qos.TenantConfig
	// AdmissionTimeout is how long a request waits for an enumeration slot
	// before being rejected with 429 (default 2s).
	AdmissionTimeout time.Duration
	// QueryTimeout bounds one cacheable enumeration (default 5m). Cacheable
	// runs are detached from the requesting client — a dropped client does
	// not abort work whose result every later identical query reuses — so
	// this is their only stop.
	QueryTimeout time.Duration
	// DefaultThreads is the engine parallelism when a query does not ask
	// for one (default NumCPU).
	DefaultThreads int
	// MaxThreads rejects queries asking for more parallelism (default
	// 4×NumCPU); like MaxK, an open service needs a ceiling — the engine
	// spawns a worker, a queue and scratch buffers per thread.
	MaxThreads int
	// MaxK rejects queries with k beyond it (default 8; enumeration cost
	// explodes with k, so an open service needs a ceiling).
	MaxK int
	// MaxTopN caps topk queries (default 1000).
	MaxTopN int
	// StreamBuffer is the per-stream channel capacity (default
	// kplex.DefaultStreamBuffer).
	StreamBuffer int

	// JobsDir enables the durable async job subsystem: long enumerations
	// submitted to POST /jobs run in the background, checkpoint seed-level
	// progress under this directory, and resume after a restart. Empty
	// disables the /jobs endpoints (they answer 503).
	JobsDir string
	// JobWorkers bounds concurrently running jobs (default 2). Each running
	// job additionally holds one MaxConcurrent admission slot while it
	// enumerates, so jobs and interactive queries share one capacity budget.
	JobWorkers int
	// JobCheckpointSeeds is the checkpoint batch size in completed seed
	// groups (default 64).
	JobCheckpointSeeds int
	// JobCheckpointInterval is the maximum age of uncheckpointed progress
	// (default 2s).
	JobCheckpointInterval time.Duration
	// JobMinCheckpointGap rate-limits checkpoint fsyncs (default 250ms,
	// negative disables; see jobs.Config.MinCheckpointGap).
	JobMinCheckpointGap time.Duration

	// RouteAsyncThreshold is the predicted-runtime cutoff of route=auto
	// queries (default 30s): above it — and only when the job subsystem is
	// enabled — the query is answered 202 with a durable job manifest
	// instead of synchronously. The prediction comes from the engine's cost
	// model, calibrated online against this server's observed runtimes (see
	// routing.go).
	RouteAsyncThreshold time.Duration

	// ClusterDir enables the distributed-enumeration coordinator: jobs
	// submitted to POST /cluster/jobs have their seed space partitioned
	// into ranges leased to the registered worker kplexds, with completed
	// ranges checkpointed under this directory. Empty disables the
	// coordinator endpoints (they answer 503); the worker endpoint POST
	// /cluster/run is always served, so any kplexd can join a cluster.
	ClusterDir string
	// ClusterWorkers seeds the coordinator's worker set with base URLs;
	// more can register at runtime via POST /cluster/workers.
	ClusterWorkers []string
	// ClusterLeaseTimeout fails a range lease whose worker stops streaming
	// for this long (default 15s; see cluster.Config.LeaseTimeout).
	ClusterLeaseTimeout time.Duration
	// ClusterStealAfter is how long a range must have been on lease before
	// an idle worker speculatively re-leases it (default 2× lease timeout).
	ClusterStealAfter time.Duration
	// ClusterRangesPerWorker sizes default partitions (default 4).
	ClusterRangesPerWorker int
	// ClusterMaxRangeAttempts fails a job once one range has lost this
	// many leases (default 8).
	ClusterMaxRangeAttempts int

	// Logf receives kplexd's structured operational log lines (admission
	// stalls, slow-query-log failures). Default log.Printf.
	Logf func(format string, args ...any)
	// TraceCapacity is how many finished traces the /debug/traces ring
	// keeps before evicting the oldest (default 256).
	TraceCapacity int
	// TraceSampleEvery traces 1 in N interactive requests (default 1:
	// trace everything; the ring bounds memory, not the sample rate).
	// Background jobs and distributed jobs are always traced — they are
	// rare and expensive, exactly the requests worth keeping.
	TraceSampleEvery int
	// SlowQueryLog is the path of the slow-query NDJSON log; empty
	// disables it. The log rotates to <path>.1 past SlowQueryLogMaxBytes.
	SlowQueryLog string
	// SlowQueryLogMaxBytes caps one slow-log generation (default 8 MiB).
	SlowQueryLogMaxBytes int64
	// SlowQueryThreshold is the wall-clock at which a query, stream or
	// batch earns a slow-query-log record (default 1s).
	SlowQueryThreshold time.Duration
	// AdmissionWarnAfter emits a structured warning once queued work (a
	// background job or a leased range) has waited this long for an
	// enumeration slot. Default ClusterLeaseTimeout when set, else 15s: a
	// leased range stalled in admission sends no heartbeats, so a wait
	// past the lease timeout is exactly when the coordinator starts
	// reassigning this worker's leases and an operator needs the signal.
	AdmissionWarnAfter time.Duration
}

func (c Config) withDefaults() Config {
	if c.MaxResidentGraphs <= 0 {
		c.MaxResidentGraphs = 8
	}
	if c.CacheEntries <= 0 {
		c.CacheEntries = 256
	}
	if c.PreparedEntries <= 0 {
		c.PreparedEntries = 4 * c.MaxResidentGraphs
	}
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = max(2, runtime.NumCPU())
	}
	if c.AdmissionTimeout <= 0 {
		c.AdmissionTimeout = 2 * time.Second
	}
	if c.QueryTimeout <= 0 {
		c.QueryTimeout = 5 * time.Minute
	}
	if c.DefaultThreads <= 0 {
		c.DefaultThreads = runtime.NumCPU()
	}
	if c.MaxThreads <= 0 {
		c.MaxThreads = 4 * runtime.NumCPU()
	}
	if c.DefaultThreads > c.MaxThreads {
		c.DefaultThreads = c.MaxThreads
	}
	if c.MaxK <= 0 {
		c.MaxK = 8
	}
	if c.MaxTopN <= 0 {
		c.MaxTopN = 1000
	}
	if c.StreamBuffer <= 0 {
		c.StreamBuffer = kplex.DefaultStreamBuffer
	}
	if c.RouteAsyncThreshold <= 0 {
		c.RouteAsyncThreshold = 30 * time.Second
	}
	if c.Logf == nil {
		c.Logf = log.Printf
	}
	if c.TraceCapacity <= 0 {
		c.TraceCapacity = 256
	}
	if c.TraceSampleEvery <= 0 {
		c.TraceSampleEvery = 1
	}
	if c.SlowQueryThreshold <= 0 {
		c.SlowQueryThreshold = time.Second
	}
	if c.AdmissionWarnAfter <= 0 {
		if c.ClusterLeaseTimeout > 0 {
			c.AdmissionWarnAfter = c.ClusterLeaseTimeout
		} else {
			c.AdmissionWarnAfter = 15 * time.Second
		}
	}
	return c
}

// Server is the kplexd service. Create with New, expose via Handler, and
// Close on shutdown to cancel detached executions.
type Server struct {
	cfg     Config
	reg     *Registry
	cache   *lru[*queryResult]
	prep    *lru[*kplex.Prepared]
	catalog *store.Catalog // nil when Config.CatalogDir is empty
	flight  flightGroup
	qos     *qos.Controller
	metrics *obs.Registry // every exported metric; see declareMetrics
	met     metrics
	mux     *http.ServeMux
	router  *costRouter
	jobs    *jobs.Manager        // nil when Config.JobsDir is empty
	cluster *cluster.Coordinator // nil when Config.ClusterDir is empty
	baseCtx context.Context
	stop    context.CancelFunc

	tracer   *obs.Tracer
	inflight *obs.Inflight
	slow     *obs.SlowLog // nil when Config.SlowQueryLog is empty
}

// New builds a Server from cfg (see Config for defaults). The only
// construction failure is the job subsystem (an unusable JobsDir or
// unrecoverable job state).
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	var cat *store.Catalog
	if cfg.CatalogDir != "" {
		var err error
		if cat, err = store.OpenCatalog(cfg.CatalogDir); err != nil {
			return nil, fmt.Errorf("opening graph catalog: %w", err)
		}
	}
	s := &Server{
		cfg:      cfg,
		reg:      NewRegistry(cfg.MaxResidentGraphs, NewLoader(cfg.DataDir, cat)),
		catalog:  cat,
		cache:    newLRU[*queryResult](cfg.CacheEntries),
		prep:     newLRU[*kplex.Prepared](cfg.PreparedEntries),
		qos:      qos.NewController(cfg.MaxConcurrent, cfg.Tenants),
		mux:      http.NewServeMux(),
		router:   newCostRouter(),
		tracer:   obs.NewTracer(cfg.TraceCapacity, cfg.TraceSampleEvery),
		inflight: obs.NewInflight(),
		metrics:  obs.NewRegistry(),
	}
	s.declareMetrics()
	if cfg.SlowQueryLog != "" {
		sl, err := obs.NewSlowLog(cfg.SlowQueryLog, cfg.SlowQueryLogMaxBytes)
		if err != nil {
			return nil, err
		}
		s.slow = sl
	}
	s.reg.setHooks(
		func() { s.met.GraphLoads.Add(1) },
		func() { s.met.GraphEvictions.Add(1) },
	)
	s.baseCtx, s.stop = context.WithCancel(context.Background())
	if cfg.JobsDir != "" {
		man, err := jobs.Open(jobs.Config{
			Dir:                cfg.JobsDir,
			Load:               s.jobGraph,
			Prepare:            s.jobPrepared,
			Workers:            cfg.JobWorkers,
			CheckpointSeeds:    cfg.JobCheckpointSeeds,
			CheckpointInterval: cfg.JobCheckpointInterval,
			MinCheckpointGap:   cfg.JobMinCheckpointGap,
			MaxTopN:            cfg.MaxTopN,
			DefaultThreads:     cfg.DefaultThreads,
			Admit:              s.admitJob,
			TenantWeight:       tenantWeights(cfg.Tenants),
			ObserveCost:        s.observeCost,
			Tracer:             s.tracer,
			ObserveFsync:       s.met.FsyncDuration.ObserveDuration,
			ObserveJob:         s.met.JobDuration.ObserveDuration,
		})
		if err != nil {
			return nil, fmt.Errorf("opening job subsystem: %w", err)
		}
		s.jobs = man
		s.metrics.Mount("jobs_", man.Metrics())
	}
	if cfg.ClusterDir != "" {
		co, err := cluster.Open(jobs.Config{
			Dir:     cfg.ClusterDir,
			Load:    s.jobGraph,
			Prepare: s.jobPrepared,
			MaxTopN: cfg.MaxTopN,
			Logf:    cfg.Logf,
			Tracer:  s.tracer,
		}, cluster.Config{
			Workers:          cfg.ClusterWorkers,
			LeaseTimeout:     cfg.ClusterLeaseTimeout,
			StealAfter:       cfg.ClusterStealAfter,
			RangesPerWorker:  cfg.ClusterRangesPerWorker,
			MaxRangeAttempts: cfg.ClusterMaxRangeAttempts,
			ObserveLease:     s.met.LeaseDuration.ObserveDuration,
		})
		if err != nil {
			return nil, fmt.Errorf("opening cluster coordinator: %w", err)
		}
		s.cluster = co
		s.metrics.Mount("cluster_", co.Metrics())
	}
	s.routes()
	return s, nil
}

// Jobs exposes the job manager (tests and the preload path); nil when the
// subsystem is disabled.
func (s *Server) Jobs() *jobs.Manager { return s.jobs }

// jobGraph adapts the graph registry to the job manager's loader: the
// graph stays pinned for the whole run.
func (s *Server) jobGraph(name string) (graph.CSR, string, func(), error) {
	e, err := s.reg.Acquire(name)
	if err != nil {
		return nil, "", nil, err
	}
	return e.G, e.Digest, func() { s.reg.Release(e) }, nil
}

// jobPrepared resolves a job's run prologue through the server's
// prepared-graph cache, so background jobs — and especially their resumed
// incarnations after a restart — share prologues with interactive queries
// instead of recomputing them.
func (s *Server) jobPrepared(g graph.CSR, digest string, opts kplex.Options) (*kplex.Prepared, error) {
	return s.prepared(g, digest, &opts)
}

// tenantWeights builds the job scheduler's weight lookup from the declared
// tenant profiles; unknown tenants weigh 1 (the lookup returns 0 and the
// scheduler applies its default).
func tenantWeights(tenants []qos.TenantConfig) func(string) float64 {
	w := make(map[string]float64, len(tenants))
	for _, tc := range tenants {
		if tc.Weight > 0 {
			w[tc.Name] = tc.Weight
		}
	}
	return func(tenant string) float64 { return w[tenant] }
}

// admitJob takes an enumeration slot for a background job or a leased
// seed range on behalf of tenant. Unlike the interactive path there is no
// 429 and no token charge: jobs are queued, already-accepted work by
// definition, so they wait for capacity (or until the job is cancelled),
// sharing the weighted-fair queue with interactive requests. The wait is
// never silent: it feeds the admission-wait histogram, and once it crosses
// Config.AdmissionWarnAfter a structured warning is logged — a leased
// range stalled here sends no heartbeats, so a long wait is the usual
// prelude to the coordinator expiring the lease.
func (s *Server) admitJob(ctx context.Context, tenant string) (func(), error) {
	start := time.Now()
	done := make(chan struct{})
	defer close(done)
	go func() {
		warn := time.NewTimer(s.cfg.AdmissionWarnAfter)
		defer warn.Stop()
		for {
			select {
			case <-done:
				return
			case <-warn.C:
				s.cfg.Logf(`{"level":"warn","msg":"queued work waiting on admission","waitedMs":%.0f,"warnAfterMs":%.0f,"maxConcurrent":%d}`,
					float64(time.Since(start))/float64(time.Millisecond),
					float64(s.cfg.AdmissionWarnAfter)/float64(time.Millisecond),
					s.cfg.MaxConcurrent)
				warn.Reset(s.cfg.AdmissionWarnAfter)
			}
		}
	}()
	release, err := s.qos.AdmitQueued(ctx, tenant)
	s.met.AdmissionWait.ObserveSince(start)
	s.met.TenantWait.Observe(tenant, time.Since(start).Seconds())
	return release, err
}

// Handler returns the HTTP handler serving all endpoints.
func (s *Server) Handler() http.Handler { return s.withObs(s.mux) }

// withObs wraps the API mux with request tracing: the enumeration
// endpoints get a (sampled) trace carried in the request context, with the
// id echoed in the X-Trace-Id response header so a caller can fetch
// /debug/traces/{id} afterwards. Everything else — health checks, listings,
// metrics — passes through untouched; tracing them would churn the ring
// without diagnostic value. The ResponseWriter is deliberately not
// wrapped: a wrapper would hide http.Flusher from the NDJSON endpoints
// (see ndjsonFlusher).
func (s *Server) withObs(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/query", "/stream", "/batch":
		default:
			next.ServeHTTP(w, r)
			return
		}
		t := s.tracer.Start(r.Method + " " + r.URL.Path)
		if t != nil {
			w.Header().Set("X-Trace-Id", t.ID())
			r = r.WithContext(obs.ContextWith(r.Context(), t))
			defer t.Finish()
		}
		next.ServeHTTP(w, r)
	})
}

// Tracer exposes the trace ring (tests and debug tooling).
func (s *Server) Tracer() *obs.Tracer { return s.tracer }

// Registry exposes the graph registry (tests and the preload path).
func (s *Server) Registry() *Registry { return s.reg }

// Metrics returns a snapshot of the server counters, including the job
// and cluster subsystems' when they are enabled.
func (s *Server) Metrics() map[string]int64 { return s.metrics.Snapshot() }

// Close stops the job manager (running jobs flush a final checkpoint so
// the next start resumes them) and cancels every detached execution.
// In-flight handlers finish on their own (http.Server.Shutdown handles
// draining them).
func (s *Server) Close() {
	if s.cluster != nil {
		s.cluster.Close()
	}
	if s.jobs != nil {
		s.jobs.Close()
	}
	s.stop()
	s.slow.Close() //nolint:errcheck // diagnostic output; nothing to do on failure
}

// admit blocks until tenant is granted an enumeration slot, the client
// gives up, or the admission timeout passes. The tenant's token bucket is
// charged; a bucket denial surfaces as a *qos.QuotaError (mapped to 429
// with a computed Retry-After), and an admission-timeout expiry while the
// client is still there surfaces as errBusy. The returned release must be
// called exactly once.
func (s *Server) admit(ctx context.Context, tenant string) (release func(), err error) {
	start := time.Now()
	actx, cancel := context.WithTimeout(ctx, s.cfg.AdmissionTimeout)
	defer cancel()
	release, err = s.qos.Admit(actx, tenant)
	if err == nil {
		s.met.AdmissionWait.ObserveSince(start)
		s.met.TenantWait.Observe(tenant, time.Since(start).Seconds())
		return release, nil
	}
	var qe *qos.QuotaError
	if errors.As(err, &qe) {
		s.met.QuotaDenied.Add(1)
		return nil, err
	}
	if actx.Err() != nil && ctx.Err() == nil {
		return nil, errBusy // the timeout fired, not the caller
	}
	return nil, err
}

var errBusy = fmt.Errorf("server at capacity: all enumeration slots busy")
