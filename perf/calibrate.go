package main

import (
	"math/bits"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// Host-speed calibration. The recorded host is a 2-vCPU VM whose cores
// are shared with other machines: the same pass over the engine cells
// takes anywhere from 4 s to 8 s depending on what else runs, and the
// speed moves within seconds as well as over hours. That drift is not the
// code's, yet it is larger than any bound a regression could be held to.
// So the benchmark runs a fixed reference computation of its own — code
// no change to the repository can make faster or slower — between the
// closed-loop cells and around each set-up, while the code under test is
// idle, and reports those times scaled by refNominalMS over the
// reference's time around them. The per-layer run reports the measured
// reference time and the resulting slowdown, so every scaled number can
// be turned back into the raw one.

// refNominalMS is the reference time scaled results are expressed at:
// about the reference's typical median on the recorded host, so scaled
// times read like that host's raw ones (see README.md).
const refNominalMS = 20.0

// refVertices is the size of each reference graph: two 64-bit words.
const refVertices = 128

type refSet [refVertices / 64]uint64

// refGraph is a fixed random graph whose maximal cliques the reference
// counts with a pivoting bitset Bron–Kerbosch: the same bitset
// intersections, popcounts and data-dependent branches the engine's
// branch-and-bound spends its time on, without allocating.
type refGraph struct {
	adj [refVertices]refSet
}

// reference is the calibration workload: independent graphs pulled by
// nproc workers from a shared counter, so that, like the engine's
// schedulers, it balances its load over whatever share of each CPU the
// host grants.
type reference struct {
	graphs []refGraph
	want   int // cliques over all graphs, from the first run
}

func newReference() *reference {
	rng := rand.New(rand.NewSource(1))
	r := &reference{graphs: make([]refGraph, 32)}
	for gi := range r.graphs {
		g := &r.graphs[gi]
		for u := 0; u < refVertices; u++ {
			for v := u + 1; v < refVertices; v++ {
				if rng.Float64() < 0.35 {
					g.adj[u][v/64] |= 1 << (v % 64)
					g.adj[v][u/64] |= 1 << (u % 64)
				}
			}
		}
	}
	return r
}

// run does the reference computation once on nproc workers and returns
// its wall time. It panics if the clique count ever changes, which only a
// bug could cause. It must not run concurrently with itself.
func (r *reference) run() time.Duration {
	var next atomic.Int64
	var total atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < nproc(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := next.Add(1) - 1; i < int64(len(r.graphs)); i = next.Add(1) - 1 {
				total.Add(int64(r.graphs[i].cliques(allRefVertices(), refSet{})))
			}
		}()
	}
	wg.Wait()
	d := time.Since(start)
	if r.want == 0 {
		r.want = int(total.Load())
	} else if int(total.Load()) != r.want {
		panic("perf: the calibration reference changed its answer")
	}
	return d
}

// calibration runs the reference and keeps every time it measured.
type calibration struct {
	ref   *reference
	times []float64 // ms
}

// measure runs the reference once and returns its time in ms.
func (c *calibration) measure() float64 {
	t := ms(c.ref.run())
	c.times = append(c.times, t)
	return t
}

// layers reports the median reference time of the run and the slowdown
// it implies, the factor the scaled times of a closed loop and of every
// set-up were divided by.
func (c *calibration) layers(m map[string]float64) {
	m["host.ref_ms"] = median(c.times)
	m["host.slowdown"] = median(c.times) / refNominalMS
}

// scaleFor is the factor that turns a time measured between reference
// runs of before and after ms into scaled time.
func scaleFor(before, after float64) float64 {
	return refNominalMS / ((before + after) / 2)
}

// A serve phase cannot stop for the reference: the open loop would stall,
// and the reference on nproc workers would compete with the server it
// measures. It runs a probe instead, one reference graph on one goroutine
// every probeEvery: about 1 ms of work, half a percent of the CPUs. Most
// probes find a CPU free, so their median follows the host's speed rather
// than the server's load.
const probeEvery = 100 * time.Millisecond

// probeNominalMS is the probe's time on the recorded host when the whole
// reference takes refNominalMS (the median ratio of the two over twenty
// serve runs was 0.066).
const probeNominalMS = 1.3

// probe times the first reference graph at a fixed period until finish.
type probe struct {
	stop  chan struct{}
	done  chan struct{}
	times []float64 // ms
}

func (r *reference) startProbe() *probe {
	p := &probe{stop: make(chan struct{}), done: make(chan struct{})}
	g := &r.graphs[0]
	go func() {
		defer close(p.done)
		tick := time.NewTicker(probeEvery)
		defer tick.Stop()
		for {
			start := time.Now()
			g.cliques(allRefVertices(), refSet{})
			p.times = append(p.times, ms(time.Since(start)))
			select {
			case <-p.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return p
}

// finish stops the probe and returns the scale of the time it covered:
// probeNominalMS over the median probe time.
func (p *probe) finish() (scale float64) {
	close(p.stop)
	<-p.done
	return probeNominalMS / median(p.times)
}

func allRefVertices() refSet {
	var all refSet
	for v := 0; v < refVertices; v++ {
		all[v/64] |= 1 << (v % 64)
	}
	return all
}

// cliques counts the maximal cliques that extend the current clique by
// vertices of p and by none of x.
func (g *refGraph) cliques(p, x refSet) int {
	if p == (refSet{}) {
		if x == (refSet{}) {
			return 1
		}
		return 0
	}
	pivot, best := -1, -1
	for w := range p {
		for m := p[w] | x[w]; m != 0; m &= m - 1 {
			u := w*64 + bits.TrailingZeros64(m)
			c := 0
			for i := range p {
				c += bits.OnesCount64(p[i] & g.adj[u][i])
			}
			if c > best {
				pivot, best = u, c
			}
		}
	}
	n := 0
	for w := range p {
		for m := p[w] &^ g.adj[pivot][w]; m != 0; m &= m - 1 {
			v := w*64 + bits.TrailingZeros64(m)
			var np, nx refSet
			for i := range p {
				np[i], nx[i] = p[i]&g.adj[v][i], x[i]&g.adj[v][i]
			}
			n += g.cliques(np, nx)
			p[w] &^= 1 << (v % 64)
			x[w] |= 1 << (v % 64)
		}
	}
	return n
}
