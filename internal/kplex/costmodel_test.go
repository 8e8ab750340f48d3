package kplex

import (
	"context"
	"fmt"
	"math"
	"os"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/graph"
)

// CostSample is one observed (features, runtime) pair for fitting.
type CostSample struct {
	F       CostFeatures
	Elapsed time.Duration
}

// FitCostModel fits a CostModel to samples by least squares on
// log(seconds), solving the normal equations with a small ridge term for
// stability (the log-count features still co-vary on most graph families).
// It needs at least costFeatureDim samples. It is the offline fitter that
// produced DefaultCostModel; no serving path refits the model.
func FitCostModel(samples []CostSample) (CostModel, error) {
	if len(samples) < costFeatureDim {
		return CostModel{}, fmt.Errorf("kplex: FitCostModel needs >= %d samples, got %d", costFeatureDim, len(samples))
	}
	const lambda = 1e-6
	var ata [costFeatureDim][costFeatureDim]float64
	var atb [costFeatureDim]float64
	for _, s := range samples {
		sec := s.Elapsed.Seconds()
		if sec <= 0 {
			sec = 1e-9
		}
		y := math.Log(sec)
		x := s.F.vector()
		for i := 0; i < costFeatureDim; i++ {
			for j := 0; j < costFeatureDim; j++ {
				ata[i][j] += x[i] * x[j]
			}
			atb[i] += x[i] * y
		}
	}
	for i := 0; i < costFeatureDim; i++ {
		ata[i][i] += lambda
	}

	// Gaussian elimination with partial pivoting on the small dense system.
	for col := 0; col < costFeatureDim; col++ {
		piv := col
		for r := col + 1; r < costFeatureDim; r++ {
			if math.Abs(ata[r][col]) > math.Abs(ata[piv][col]) {
				piv = r
			}
		}
		if math.Abs(ata[piv][col]) < 1e-12 {
			return CostModel{}, fmt.Errorf("kplex: FitCostModel: singular normal equations (degenerate sample set)")
		}
		ata[col], ata[piv] = ata[piv], ata[col]
		atb[col], atb[piv] = atb[piv], atb[col]
		for r := col + 1; r < costFeatureDim; r++ {
			fac := ata[r][col] / ata[col][col]
			for c := col; c < costFeatureDim; c++ {
				ata[r][c] -= fac * ata[col][c]
			}
			atb[r] -= fac * atb[col]
		}
	}
	var m CostModel
	for i := costFeatureDim - 1; i >= 0; i-- {
		v := atb[i]
		for j := i + 1; j < costFeatureDim; j++ {
			v -= ata[i][j] * m.Coef[j]
		}
		m.Coef[i] = v / ata[i][i]
	}
	return m, nil
}

// TestCostFeatures pins the prologue summary on a hand-checkable graph: a
// 5-path 0-1-2-3-4 with k=1, q=2 reduces to itself, and the degeneracy
// orientation's later degrees are directly countable.
func TestCostFeatures(t *testing.T) {
	g := pathGraph(t, 5)
	p, err := Prepare(g, NewOptions(1, 2))
	if err != nil {
		t.Fatal(err)
	}
	f := p.CostFeatures()
	if f.N != 5 || f.M != 4 {
		t.Fatalf("N,M = %d,%d want 5,4", f.N, f.M)
	}
	if f.K != 1 || f.Q != 2 {
		t.Fatalf("K,Q = %d,%d want 1,2", f.K, f.Q)
	}
	// Every vertex except the degeneracy-last one has at least one later
	// neighbour; need = q-k = 1.
	if f.ActiveSeeds != 4 {
		t.Fatalf("ActiveSeeds = %d want 4", f.ActiveSeeds)
	}
	if f.MaxLaterDeg < 1 || f.MaxLaterDeg > 2 {
		t.Fatalf("MaxLaterDeg = %d want 1..2", f.MaxLaterDeg)
	}
	if f.AvgLaterDeg < 1 || f.AvgLaterDeg > 2 {
		t.Fatalf("AvgLaterDeg = %v want within [1,2]", f.AvgLaterDeg)
	}
	// Memoized: second call returns the identical summary.
	if p.CostFeatures() != f {
		t.Fatal("CostFeatures not memoized")
	}
}

// TestFitCostModelRecovers fits against noise-free synthetic samples drawn
// from a known model and checks the fit reproduces its predictions.
func TestFitCostModelRecovers(t *testing.T) {
	truth := CostModel{Coef: [costFeatureDim]float64{-10, 0.9, 1.5, 0.5, 0.8, 0.2}}
	var samples []CostSample
	for n := 50; n <= 3200; n *= 2 {
		for k := 1; k <= 3; k++ {
			f := CostFeatures{
				N: n, M: n * 7, K: k, Q: 2*k + n%5,
				ActiveSeeds: n / 2, AvgLaterDeg: 6.5, MaxLaterDeg: 20,
			}
			samples = append(samples, CostSample{F: f, Elapsed: truth.Predict(f)})
		}
	}
	m, err := FitCostModel(samples)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range samples {
		got, want := m.Predict(s.F).Seconds(), s.Elapsed.Seconds()
		if r := got / want; r < 0.5 || r > 2.0 {
			t.Fatalf("fit drifted: predict %v want %v (features %+v)", got, want, s.F)
		}
	}
}

func TestFitCostModelTooFewSamples(t *testing.T) {
	if _, err := FitCostModel(make([]CostSample, costFeatureDim-1)); err == nil {
		t.Fatal("want error for underdetermined sample set")
	}
}

// TestDefaultCostModelMonotone pins the routing-relevant directions of the
// built-in model: strictly more edges, a larger k, and more q-headroom must
// each predict a longer run. These are sign constraints on the fitted
// coefficients, so the test is deterministic.
func TestDefaultCostModelMonotone(t *testing.T) {
	base := CostFeatures{N: 1000, M: 8000, K: 2, Q: 8, ActiveSeeds: 600, AvgLaterDeg: 8, MaxLaterDeg: 30}
	pb := DefaultCostModel.Predict(base)

	more := base
	more.M *= 8
	more.AvgLaterDeg *= 2
	if DefaultCostModel.Predict(more) <= pb {
		t.Fatalf("denser graph predicted cheaper: %v <= %v", DefaultCostModel.Predict(more), pb)
	}
	harderK := base
	harderK.K, harderK.Q = 3, 9 // same headroom 2K-Q as (2, 8)... K up by 1
	harderK.Q = harderK.K*2 - (base.K*2 - base.Q)
	if DefaultCostModel.Predict(harderK) <= pb {
		t.Fatalf("larger k predicted cheaper: %v <= %v", DefaultCostModel.Predict(harderK), pb)
	}
	looser := base
	looser.Q-- // more headroom, weaker pruning
	if DefaultCostModel.Predict(looser) <= pb {
		t.Fatalf("looser q predicted cheaper: %v <= %v", DefaultCostModel.Predict(looser), pb)
	}
}

// TestDefaultCostModelSane checks the built-in model orders real corpus
// workloads usefully: over a sequential sweep it must rank the most
// expensive cell above the cheapest (predictions are routing signals, so
// ordering — not absolute scale — is the quality bar).
func TestDefaultCostModelSane(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus sweep")
	}
	type obs struct {
		pred time.Duration
		real time.Duration
	}
	var all []obs
	for _, cg := range gen.Corpus()[:4] {
		g := cg.Build()
		for _, cell := range [][2]int{{2, 6}, {2, 10}} {
			opts := NewOptions(cell[0], cell[1])
			p, err := Prepare(g, opts)
			if err != nil {
				t.Fatal(err)
			}
			start := time.Now()
			if _, err := RunPrepared(context.Background(), p, opts); err != nil {
				t.Fatal(err)
			}
			all = append(all, obs{DefaultCostModel.Predict(p.CostFeatures()), time.Since(start)})
		}
	}
	// Rank correlation between predicted and observed must be positive:
	// count concordant vs discordant pairs among pairs whose observed
	// times differ by at least 2x (closer pairs are timing noise).
	conc, disc := 0, 0
	for i := range all {
		for j := i + 1; j < len(all); j++ {
			ri, rj := all[i].real, all[j].real
			if ri == 0 || rj == 0 {
				continue
			}
			ratio := float64(ri) / float64(rj)
			if ratio < 2 && ratio > 0.5 {
				continue
			}
			if (ri > rj) == (all[i].pred > all[j].pred) {
				conc++
			} else {
				disc++
			}
		}
	}
	if conc+disc > 0 && conc <= disc {
		t.Fatalf("model ranks corpus cells no better than chance: %d concordant, %d discordant", conc, disc)
	}
}

// TestFitDefaultCostModel is the offline fitting harness behind
// DefaultCostModel: KPLEX_FIT_COST=1 go test -run TestFitDefaultCostModel -v
// sweeps the corpus sequentially, fits, and prints the coefficient block to
// paste into costmodel.go. Skipped in normal runs (it is a tool, not a
// test).
func TestFitDefaultCostModel(t *testing.T) {
	if os.Getenv("KPLEX_FIT_COST") == "" {
		t.Skip("set KPLEX_FIT_COST=1 to run the fitting sweep")
	}
	// The corpus alone is too homogeneous in size to separate the N, M and
	// density axes, so the sweep adds a size ladder of GNP and BA graphs.
	type sweepGraph struct {
		name  string
		build func() *graph.Graph
	}
	var sweep []sweepGraph
	for _, cg := range gen.Corpus() {
		sweep = append(sweep, sweepGraph{cg.Name, cg.Build})
	}
	for _, n := range []int{150, 400, 1000, 2500} {
		n := n
		sweep = append(sweep,
			sweepGraph{fmt.Sprintf("gnp-%d", n), func() *graph.Graph { return gen.GNP(n, 18/float64(n), int64(n)) }},
			sweepGraph{fmt.Sprintf("gnp-dense-%d", n), func() *graph.Graph { return gen.GNP(n, 45/float64(n), int64(n)+1) }},
			sweepGraph{fmt.Sprintf("ba-%d", n), func() *graph.Graph { return gen.BarabasiAlbert(n, 8, int64(n)+2) }},
		)
	}
	var samples []CostSample
	for _, cg := range sweep {
		g := cg.build()
		for _, cell := range [][2]int{{1, 3}, {1, 5}, {2, 5}, {2, 6}, {2, 8}, {2, 10}, {3, 7}, {3, 9}, {3, 12}, {4, 10}, {4, 14}} {
			opts := NewOptions(cell[0], cell[1])
			p, err := Prepare(g, opts)
			if err != nil {
				t.Fatal(err)
			}
			// Median of 3 to tame scheduling noise.
			best := time.Duration(math.MaxInt64)
			for rep := 0; rep < 3; rep++ {
				start := time.Now()
				if _, err := RunPrepared(context.Background(), p, opts); err != nil {
					t.Fatal(err)
				}
				if d := time.Since(start); d < best {
					best = d
				}
			}
			samples = append(samples, CostSample{F: p.CostFeatures(), Elapsed: best})
			t.Logf("%s k=%d q=%d: %v (features %+v)", cg.name, cell[0], cell[1], best, p.CostFeatures())
		}
	}
	m, err := FitCostModel(samples)
	if err != nil {
		t.Fatal(err)
	}
	var resid, n float64
	for _, s := range samples {
		d := math.Log(m.Predict(s.F).Seconds()) - math.Log(s.Elapsed.Seconds())
		resid += d * d
		n++
	}
	t.Logf("rms log-residual: %.3f over %d samples", math.Sqrt(resid/n), len(samples))
	out := "Coef: [costFeatureDim]float64{\n"
	for _, c := range m.Coef {
		out += fmt.Sprintf("\t%.4f,\n", c)
	}
	t.Logf("fitted model:\n%s}", out)
}
