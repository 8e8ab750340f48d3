package cluster

import (
	"fmt"

	"repro/internal/jobs"
	"repro/internal/kplex"
)

// The coordinator's per-job write-ahead log: a jobs.Log with one record
// per completed range, in completion order, each carrying the range's
// aggregate. Unlike the jobs layer's log — whose records are cumulative
// snapshots — range aggregates are independent (ranges partition the seed
// space), so replay is simply "collect the completed ranges"; the merged
// result is reconstructed from them in range order.

const rangeWALName = "ranges.ndjson"

type rangeRecord struct {
	jobs.LogHeader
	Range int              `json:"range"` // index into the manifest's pinned partition
	Agg   *kplex.Aggregate `json:"agg"`
	// EnumMS is the cumulative distributed wall-clock up to this record,
	// across coordinator incarnations.
	EnumMS float64 `json:"enumMs"`
}

// rangeReplay is the durable state reconstructed from a log.
type rangeReplay struct {
	jobs.LogReplay
	aggs   map[int]*kplex.Aggregate // completed range index -> unsealed aggregate
	enumMS float64
}

// replayRangeWAL reads the log at path and cuts off a torn tail. A
// duplicate record for an already-replayed range is ignored (first wins —
// the in-memory idempotency rule applied once more at replay time); a
// record naming a range outside the nRanges partition is a hard error.
func replayRangeWAL(path string, nRanges int) (*rangeReplay, error) {
	rep := &rangeReplay{aggs: make(map[int]*kplex.Aggregate)}
	var err error
	rep.LogReplay, err = jobs.ReplayLog(path, func(rec *rangeRecord) error {
		if rec.Agg == nil {
			return jobs.ErrTornRecord
		}
		if rec.Range < 0 || rec.Range >= nRanges {
			return fmt.Errorf("cluster: range WAL record %d names range %d of a %d-range partition (checkpoint from a different decomposition?)", rec.Seq, rec.Range, nRanges)
		}
		if _, dup := rep.aggs[rec.Range]; !dup {
			if rec.Agg.Unseal() != nil {
				return jobs.ErrTornRecord
			}
			rep.aggs[rec.Range] = rec.Agg
		}
		rep.enumMS = rec.EnumMS
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rep, nil
}
