package jobs

import (
	"fmt"

	"repro/internal/kplex"
)

// The per-job write-ahead log: a Log (see durable.go) in the job directory
// whose records are checkpoints. Each record carries the seed groups
// completed since the previous record and a full snapshot of the
// cumulative aggregates at that point, so replay is "union the seed
// deltas, keep the last aggregates" — the aggregates in record i by
// construction cover exactly the union of seeds in records 1..i.

const walName = "wal.ndjson"

// walRecord is one fsynced checkpoint. Single-item jobs persist their one
// cumulative aggregate as Agg (the original format, so logs written before
// batch jobs existed replay unchanged); multi-item batch jobs persist the
// per-item aggregate vector as Items, positionally aligned with the
// spec's items. Seed ids are global across the job's traversal groups
// (group g's local seed s is recorded as offset_g + s).
type walRecord struct {
	LogHeader
	Seeds []int              `json:"seeds"`           // completed since the previous record
	Agg   *kplex.Aggregate   `json:"agg,omitempty"`   // cumulative, covering all seeds so far
	Items []*kplex.Aggregate `json:"items,omitempty"` // multi-item jobs: one cumulative aggregate per item
	// EnumMS is the cumulative enumeration wall-clock of the job across
	// incarnations up to this checkpoint, for honest elapsed reporting
	// after a resume.
	EnumMS float64 `json:"enumMs"`
}

// walReplay is the durable state reconstructed from a log.
type walReplay struct {
	LogReplay
	doneSeeds []int
	aggs      []*kplex.Aggregate // per-item cumulative aggregates; nil when the log holds no valid record
	enumMS    float64
}

// replayWAL reads the job log at path and cuts off a torn tail. Shape
// errors in CRC-valid records — both layouts at once, an item-arity flip,
// a repeated or negative seed — are hard errors, not torn-tail truncation:
// the record is exactly what some binary durably wrote, just not
// something this binary can merge.
func replayWAL(path string) (*walReplay, error) {
	rep := &walReplay{}
	seen := make(map[int]bool)
	var err error
	rep.LogReplay, err = ReplayLog(path, func(rec *walRecord) error {
		if rec.Agg == nil && len(rec.Items) == 0 {
			return ErrTornRecord
		}
		if rec.Agg != nil && len(rec.Items) > 0 {
			return fmt.Errorf("jobs: WAL record %d sets both agg and items; the log mixes single-query and batch layouts", rec.Seq)
		}
		aggs := rec.Items
		if aggs == nil {
			aggs = []*kplex.Aggregate{rec.Agg}
		}
		if rep.aggs != nil && len(aggs) != len(rep.aggs) {
			// Checkpoints of one job all describe the same item vector; an
			// arity flip mid-log means records from a different job (or a
			// rewritten spec) were spliced in. Merging across the flip would
			// attribute aggregates to the wrong items.
			return fmt.Errorf("jobs: WAL record %d carries %d item aggregates, earlier records carry %d", rec.Seq, len(aggs), len(rep.aggs))
		}
		for _, a := range aggs {
			if a == nil || a.Unseal() != nil {
				return ErrTornRecord
			}
		}
		for _, s := range rec.Seeds {
			if s < 0 || seen[s] {
				return fmt.Errorf("jobs: WAL record %d repeats or corrupts seed %d", rec.Seq, s)
			}
			seen[s] = true
		}
		rep.doneSeeds = append(rep.doneSeeds, rec.Seeds...)
		rep.aggs = aggs
		rep.enumMS = rec.EnumMS
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rep, nil
}
