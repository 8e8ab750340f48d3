package kplex

import (
	"context"

	"repro/internal/graph"
)

// SizeHistogram enumerates like Run and returns the distribution of
// maximal k-plex sizes: hist[s] is the number of maximal k-plexes with
// exactly s vertices. The histogram is how the evaluation datasets are
// calibrated (a dataset whose plex sizes hug q exercises the bounds;
// one with a long tail exercises the collapse shortcut). opts.OnPlex is
// owned by SizeHistogram.
func SizeHistogram(ctx context.Context, g graph.CSR, opts Options) (map[int]int64, Result, error) {
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return nil, Result{}, err
		}
	}
	p, err := Prepare(g, opts)
	if err != nil {
		return nil, Result{}, err
	}
	return SizeHistogramPrepared(ctx, p, opts)
}

// SizeHistogramPrepared is SizeHistogram against a Prepared handle,
// skipping the run prologue.
func SizeHistogramPrepared(ctx context.Context, p *Prepared, opts Options) (map[int]int64, Result, error) {
	agg, res, err := aggregatePrepared(ctx, p, opts, 0)
	return agg.Histogram, res, err
}
