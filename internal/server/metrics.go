package server

import (
	"net/http"

	"repro/internal/obs"
	"repro/internal/qos"
)

// metrics are the server's handles on its own counters and histograms.
// They exist for operations (/stats, /metrics) and for the integration
// tests, which assert the batching behaviour — "N identical concurrent
// queries, one execution" — through Executions, FlightShared and
// CacheHits rather than by timing. Each metric's name, type and help
// live only in its registration in declareMetrics.
type metrics struct {
	Queries, Batches, Streams, Executions, CacheHits, CacheMisses,
	FlightShared, Rejected, Errors, GraphLoads, GraphEvictions,
	StreamedPlexes, StreamsCancelled, PreparedHits, PreparedMisses,
	PreparedWarmLoads, PreparedPersists, AutoTuned, RoutedAsync,
	CostObservations, RangeRuns, PartialAnswers, SampledQueries,
	QuotaDenied *obs.Counter

	QueryDuration, StreamDuration, BatchDuration, JobDuration,
	LeaseDuration, FsyncDuration, AdmissionWait, CostLogError *obs.Histogram

	TenantQueries *obs.CounterVec
	TenantWait    *obs.HistogramVec
}

// declareMetrics registers every metric the server itself exports on
// s.metrics; the job manager and the coordinator mount theirs next to
// these in New. /stats, /metrics and Metrics all render the registry.
func (s *Server) declareMetrics() {
	r := s.metrics
	s.met = metrics{
		Queries:           r.Counter("queries", "Cacheable queries accepted (count/topk/histogram; batch items count individually)."),
		Batches:           r.Counter("batches", "POST /batch requests accepted."),
		Streams:           r.Counter("streams", "Streaming queries accepted."),
		Executions:        r.Counter("executions", "Enumerations actually run for cacheable queries."),
		CacheHits:         r.Counter("cache_hits", "Queries answered straight from the result cache."),
		CacheMisses:       r.Counter("cache_misses", "Queries that had to consult singleflight (shared or executed)."),
		FlightShared:      r.Counter("flight_shared", "Queries that joined an in-flight identical query."),
		Rejected:          r.Counter("rejected", "Requests turned away by admission control (429)."),
		Errors:            r.Counter("errors", "Requests that ended in a 4xx/5xx other than 429."),
		GraphLoads:        r.Counter("graph_loads", "Graph registry loads (not cache-resident reuses)."),
		GraphEvictions:    r.Counter("graph_evictions", "Graph registry evictions (LRU or explicit)."),
		StreamedPlexes:    r.Counter("streamed_plexes", "Plexes delivered over stream responses."),
		StreamsCancelled:  r.Counter("streams_cancelled", "Streams ended by client disconnect or context cancellation."),
		PreparedHits:      r.Counter("prepared_hits", "Runs served a resident prepared-graph handle."),
		PreparedMisses:    r.Counter("prepared_misses", "Runs that had to compute the prologue."),
		PreparedWarmLoads: r.Counter("prepared_warm_loads", "Prologues deserialized from the persistent catalog instead of computed."),
		PreparedPersists:  r.Counter("prepared_persists", "Computed prologues persisted to the catalog."),
		AutoTuned:         r.Counter("auto_tuned", "scheduler=auto queries tuned from the cost model."),
		RoutedAsync:       r.Counter("routed_async", "route=auto queries converted into background jobs."),
		CostObservations:  r.Counter("cost_observations", "Measured runtimes fed to the cost calibrator."),
		RangeRuns:         r.Counter("range_runs", "Distributed seed ranges served as a cluster worker."),
		PartialAnswers:    r.Counter("partial_answers", "Deadline-bounded queries answered 200 with partial:true (count is a lower bound)."),
		SampledQueries:    r.Counter("sampled_queries", "Queries answered from a deterministic seed-sample estimate."),
		QuotaDenied:       r.Counter("quota_denied", "Admissions denied by a tenant's rate quota (a subset of rejected)."),

		QueryDuration:  r.Histogram("query_duration_seconds", "End-to-end wall-clock of cacheable /query requests, cache hits included.", obs.DefaultLatencyBuckets),
		StreamDuration: r.Histogram("stream_duration_seconds", "End-to-end wall-clock of /stream responses, transfer included.", obs.DefaultLatencyBuckets),
		BatchDuration:  r.Histogram("batch_duration_seconds", "End-to-end wall-clock of /batch requests.", obs.DefaultLatencyBuckets),
		JobDuration:    r.Histogram("job_duration_seconds", "Cumulative enumeration wall-clock of completed background jobs.", obs.DefaultLatencyBuckets),
		LeaseDuration:  r.Histogram("lease_duration_seconds", "Round-trip of one successful cluster range lease (dispatch to merge-ready).", obs.DefaultLatencyBuckets),
		FsyncDuration:  r.Histogram("wal_fsync_duration_seconds", "Job checkpoint WAL fsync latency.", obs.FsyncBuckets),
		AdmissionWait:  r.Histogram("admission_wait_seconds", "Time spent waiting for an enumeration slot (queries, streams, batches, jobs, ranges).", obs.DefaultLatencyBuckets),
		CostLogError:   r.Histogram("cost_model_log_error", "Absolute natural-log error of the calibrated cost model per observed runtime (0.7 is roughly a factor of two).", obs.LogErrorBuckets),

		TenantQueries: r.CounterVec("tenant_queries", "Enumeration requests per tenant (queries, streams, batch items).", "tenant"),
		TenantWait:    r.HistogramVec("tenant_admission_wait_seconds", "Admission wait per tenant.", "tenant", obs.DefaultLatencyBuckets),
	}

	// Occupancy is owned by the caches themselves; /stats reports it
	// beside the counters, /metrics samples it at scrape time.
	r.GaugeFunc("cache_entries", "Result-cache entries currently resident.", func() int64 { return int64(s.cache.len()) })
	r.GaugeFunc("resident_graphs", "Graphs currently resident in the registry.", func() int64 { return int64(s.reg.Len()) })
	r.GaugeFunc("prepared_entries", "Prepared-graph prologues currently resident.", func() int64 { return int64(s.prep.len()) })

	// The admission controller's per-tenant state is the source of truth
	// for these; a tenant with no traffic has no series.
	perTenant := func(field func(qos.TenantSnapshot) int64) func() map[string]int64 {
		return func() map[string]int64 {
			out := map[string]int64{}
			for _, ts := range s.qos.Snapshot() {
				out[ts.Name] = field(ts)
			}
			return out
		}
	}
	r.CounterVecFunc("tenant_admitted", "Admissions granted per tenant.", "tenant",
		perTenant(func(ts qos.TenantSnapshot) int64 { return ts.Admitted }))
	r.CounterVecFunc("tenant_quota_denied", "Admissions denied by the tenant's rate quota.", "tenant",
		perTenant(func(ts qos.TenantSnapshot) int64 { return ts.QuotaDenied }))
	r.GaugeVecFunc("tenant_running", "Enumeration slots currently held per tenant.", "tenant",
		perTenant(func(ts qos.TenantSnapshot) int64 { return int64(ts.Running) }))
	r.GaugeVecFunc("tenant_queued", "Admissions currently waiting per tenant.", "tenant",
		perTenant(func(ts qos.TenantSnapshot) int64 { return int64(ts.Queued) }))
}

// handleMetricsProm serves GET /metrics in the Prometheus text exposition
// format, rendered from the same registry as /stats so the JSON endpoint
// stays for humans and scripts while scrapers get the standard format.
func (s *Server) handleMetricsProm(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.metrics.WritePrometheus(w, "kplexd_") //nolint:errcheck // the scraper went away; nothing to do
}
