package main

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"time"
)

// The open-loop load generator. Independent users send on their own
// schedule whether or not the server keeps up, so requests are sent when
// due and timed from when they were due: a stall delays every request due
// during it, and that wait is part of their latency rather than being
// hidden by a sender that politely waited.

// arrivals returns n sorted send offsets in [0, d). A Poisson process
// conditioned on n arrivals in d has exactly n uniform arrival times, so
// every seed offers the same load while the timing stays Poisson.
func arrivals(rng *rand.Rand, n int, d time.Duration) []time.Duration {
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration(rng.Int63n(int64(d)))
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// zipfCounts splits n requests over k keys ranked by popularity, key r
// (from 0) getting a share proportional to 1/(r+1)^s. Fixing the counts
// rather than drawing each key keeps the offered key mix the same for
// every seed; the seed decides the order.
func zipfCounts(n, k int, s float64) []int {
	w := make([]float64, k)
	for r := range w {
		w[r] = 1 / math.Pow(float64(r+1), s)
	}
	return largestRemainder(n, w)
}

// shot is what happened to one open-loop request.
type shot struct {
	lag      time.Duration // how late the send started
	latency  time.Duration // from when it was due until it completed
	connWait time.Duration // waiting for a connection to the server
	err      error
}

// openLoop sends request i at start+due[i] regardless of completions and
// returns once every request has completed. send reports its own
// connection wait.
func openLoop(start time.Time, due []time.Duration, send func(i int) (connWait time.Duration, err error)) []shot {
	shots := make([]shot, len(due))
	var wg sync.WaitGroup
	for i, d := range due {
		if wait := time.Until(start.Add(d)); wait > 0 {
			time.Sleep(wait)
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			at := start.Add(due[i])
			s := &shots[i]
			s.lag = time.Since(at)
			s.connWait, s.err = send(i)
			s.latency = time.Since(at)
		}(i)
	}
	wg.Wait()
	return shots
}
