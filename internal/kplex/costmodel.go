package kplex

// The query cost model. A serving layer in front of the engine has to make
// three placement decisions per query — run it synchronously or as a
// durable job, with how many threads, under which scheduler/τ_time — and
// all three hinge on the same unknown: how long the enumeration will take.
// The prologue already computes everything a useful predictor needs (the
// reduced working graph, its degeneracy orientation), so CostFeatures
// summarises it in O(n) once per Prepared handle, and CostModel maps the
// summary to a predicted duration with a log-linear fit over the corpus
// measurements (see DefaultCostModel). Predictions are
// order-of-magnitude estimates — exact enumeration cost is itself
// #P-hard — which is exactly enough to separate "answer inline" from
// "queue a job", and to pick a scheduler. kplexd additionally calibrates
// the model online against observed runtimes (see internal/server).

import (
	"math"
	"time"
)

// CostFeatures is the prologue summary the cost model predicts from: the
// reduced working graph's size, the (k, q) cell, and the later-degree
// distribution of the degeneracy orientation (later degree bounds every
// seed subgraph's candidate pool, so its mass and tail govern both the
// number of non-trivial seed groups and the width of each branch tree).
type CostFeatures struct {
	N int // working-graph vertices after reduction
	M int // working-graph edges after reduction
	K int
	Q int

	ActiveSeeds int     // vertices with later degree >= q-k (groups that survive the first prune)
	AvgLaterDeg float64 // mean later degree over active seeds
	MaxLaterDeg int     // degeneracy of the working graph
}

// CostFeatures returns the handle's prologue summary, computed on first
// use and memoized (the handle is immutable, so the summary is too).
func (p *Prepared) CostFeatures() CostFeatures {
	p.costOnce.Do(func() {
		f := CostFeatures{N: p.pg.N(), M: p.pg.G().M(), K: p.k, Q: p.q}
		need := p.q - p.k
		sum := 0
		for v := 0; v < f.N; v++ {
			ld := len(p.pg.LaterNeighbors(v))
			if ld > f.MaxLaterDeg {
				f.MaxLaterDeg = ld
			}
			if ld >= need {
				f.ActiveSeeds++
				sum += ld
			}
		}
		if f.ActiveSeeds > 0 {
			f.AvgLaterDeg = float64(sum) / float64(f.ActiveSeeds)
		}
		p.costF = f
	})
	return p.costF
}

// costFeatureDim is the length of the regression vector.
const costFeatureDim = 6

// vector maps the features to the regression basis. N and M are deliberately
// absent: M = N·avgdeg/2 makes (log N, log M, log density) linearly
// dependent, which made fits of the raw-size basis unstable; the seed
// decomposition view is both better conditioned and closer to the actual
// cost structure — cost ≈ Σ_seeds branch(G_i), with |G_i| governed by the
// later-degree distribution. Counts enter as logs (cost is polynomial in
// them), k linearly (cost is exponential in k — Theorem 4.2's γ_k^D term),
// and q through the headroom 2k-q (each unit of slack beyond the Corollary
// 5.2 threshold loosens every prune).
func (f CostFeatures) vector() [costFeatureDim]float64 {
	return [costFeatureDim]float64{
		1,
		math.Log1p(float64(f.ActiveSeeds)),
		math.Log1p(f.AvgLaterDeg),
		math.Log1p(float64(f.MaxLaterDeg)),
		float64(f.K),
		float64(2*f.K - f.Q), // headroom: more positive = looser pruning
	}
}

// CostModel is a log-linear predictor: log(seconds) = coef · vector(f).
// The zero value predicts nothing useful; use DefaultCostModel.
type CostModel struct {
	Coef [costFeatureDim]float64
}

// Predict returns the model's runtime estimate for a run over a graph with
// features f. The estimate is clamped to [1µs, 24h]: the model is a router,
// and nothing outside that range changes a routing decision.
func (m *CostModel) Predict(f CostFeatures) time.Duration {
	x := f.vector()
	logSec := 0.0
	for i, c := range m.Coef {
		logSec += c * x[i]
	}
	sec := math.Exp(logSec)
	switch {
	case sec < 1e-6:
		sec = 1e-6
	case sec > 86400:
		sec = 86400
	}
	return time.Duration(sec * float64(time.Second))
}

// DefaultCostModel is the built-in predictor, fitted offline over
// sequential corpus runs (every corpus graph × a (k, q) sweep) with the
// least-squares fitter FitCostModel in costmodel_test.go; see
// TestDefaultCostModelSane for the pinned quality bar. The absolute scale
// is machine-dependent — kplexd's online calibration absorbs that — but
// the feature weights transfer: they encode how cost scales with size, k
// and q-headroom, which is hardware-independent.
var DefaultCostModel = CostModel{
	Coef: [costFeatureDim]float64{
		-12.8925, // intercept
		0.4508,   // log1p(active seeds)
		1.6225,   // log1p(avg later degree)
		0.3972,   // log1p(max later degree)
		0.3057,   // K
		0.6638,   // 2K-Q headroom
	},
}
