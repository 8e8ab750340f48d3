package main

import (
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
	"time"
)

func TestScheduleIsDeterministicPerSeed(t *testing.T) {
	for _, smoke := range []bool{true, false} {
		s := serveSpecFor(smoke)
		reqs1, due1, warm1 := s.schedule(7, 3*time.Second)
		reqs2, due2, warm2 := s.schedule(7, 3*time.Second)
		if !reflect.DeepEqual(reqs1, reqs2) || !reflect.DeepEqual(due1, due2) || warm1 != warm2 {
			t.Fatalf("smoke=%v: the same seed gave different schedules", smoke)
		}
		reqs3, due3, _ := s.schedule(8, 3*time.Second)
		if reflect.DeepEqual(reqs1, reqs3) || reflect.DeepEqual(due1, due3) {
			t.Fatalf("smoke=%v: seeds 7 and 8 gave the same schedule", smoke)
		}
		// Another seed reorders the same offered load.
		if len(reqs1) != len(reqs3) || !reflect.DeepEqual(countRequests(reqs1), countRequests(reqs3)) {
			t.Fatalf("smoke=%v: the request mix depends on the seed", smoke)
		}
		for i := 1; i < len(due1); i++ {
			if due1[i] < due1[i-1] {
				t.Fatalf("smoke=%v: arrivals out of order at %d", smoke, i)
			}
		}
		if want := int(s.rate*s.warmup.Seconds() + 0.5); warm1 != want {
			t.Fatalf("smoke=%v: %d warm-up arrivals, want %d", smoke, warm1, want)
		}
	}
}

func countRequests(reqs []request) map[request]int {
	m := map[request]int{}
	for _, r := range reqs {
		m[r]++
	}
	return m
}

func TestZipfCountsFixTheMix(t *testing.T) {
	c := zipfCounts(1000, 90, zipfS)
	total := 0
	for i, n := range c {
		total += n
		if i > 0 && n > c[i-1] {
			t.Fatalf("rank %d gets %d > rank %d's %d", i, n, i-1, c[i-1])
		}
	}
	if total != 1000 || c[0] < 5*c[89] {
		t.Fatalf("counts %v: total %d, want 1000 with a skewed head", c, total)
	}
}

// TestOpenLoopTimesFromDue stalls a fake server for 200 ms and checks that
// every request due during the stall carries the wait in its latency: a
// generator that timed from when it actually sent would hide it.
func TestOpenLoopTimesFromDue(t *testing.T) {
	var mu sync.Mutex
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		defer mu.Unlock()
		if r.URL.Path == "/stall" {
			time.Sleep(200 * time.Millisecond)
		}
	}))
	defer srv.Close()
	client := srv.Client()
	due := []time.Duration{0}
	for d := 20 * time.Millisecond; d < 200*time.Millisecond; d += 20 * time.Millisecond {
		due = append(due, d)
	}
	due = append(due, 400*time.Millisecond) // after the stall
	shots := openLoop(time.Now(), due, func(i int) (time.Duration, error) {
		path := "/ok"
		if i == 0 {
			path = "/stall"
		}
		resp, err := client.Get(srv.URL + path)
		if err == nil {
			resp.Body.Close()
		}
		return 0, err
	})
	for i, s := range shots {
		if s.err != nil {
			t.Fatal(s.err)
		}
		if i == 0 || i == len(due)-1 {
			continue
		}
		if stall := 200*time.Millisecond - due[i]; s.latency < stall {
			t.Errorf("request due at %v: latency %v, but the stall left %v of wait", due[i], s.latency, stall)
		}
	}
	if last := shots[len(shots)-1].latency; last > 150*time.Millisecond {
		t.Errorf("request due after the stall took %v", last)
	}
}

func TestOpenLoopReportsLag(t *testing.T) {
	// The generator starts 100 ms behind its schedule: every send is late.
	start := time.Now().Add(-100 * time.Millisecond)
	shots := openLoop(start, []time.Duration{0, time.Millisecond, 2 * time.Millisecond}, func(int) (time.Duration, error) { return 0, nil })
	for i, s := range shots {
		if s.lag < 90*time.Millisecond || s.latency < s.lag {
			t.Errorf("shot %d: lag %v, latency %v; want lag >= 90ms and latency >= lag", i, s.lag, s.latency)
		}
	}
}
