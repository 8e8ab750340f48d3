package server

// Concurrency regressions for the query path (CI runs this package under
// -race): the cost calibrator's EWMA under concurrent observe/predict,
// and the singleflight contract that a disconnecting leader must not fail
// the followers sharing its call.

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/graph"
)

// observations returns how many runtimes have been folded in.
func (cr *costRouter) observations() int64 {
	cr.mu.Lock()
	defer cr.mu.Unlock()
	return cr.obs
}

// TestCostRouterConcurrentObservePredict hammers the calibrator from many
// goroutines. The lock discipline is what's under test (via -race); the
// functional assertions are that no observation is lost and the bias
// never corrupts into a NaN/overflow prediction.
func TestCostRouterConcurrentObservePredict(t *testing.T) {
	cr := newCostRouter()
	const goroutines, rounds = 8, 200
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for n := 0; n < rounds; n++ {
				cr.observe(routerTestFeatures, time.Duration(1+(i+n)%5)*time.Millisecond)
				if d := cr.predict(routerTestFeatures); d <= 0 || d > 24*time.Hour {
					t.Errorf("predict returned %v mid-stress", d)
					return
				}
				cr.observations()
			}
		}(i)
	}
	wg.Wait()
	if got := cr.observations(); got != goroutines*rounds {
		t.Errorf("observations = %d, want %d (lost updates)", got, goroutines*rounds)
	}
	if d := cr.predict(routerTestFeatures); d <= 0 || d > 24*time.Hour {
		t.Errorf("final prediction %v out of range", d)
	}
}

// TestSingleflightLeaderDisconnect: the first caller of an expensive query
// drops its connection mid-flight. The execution is detached from the
// leader's context, so the follower sharing the flight must still get the
// answer, exactly one execution must run, and the result must be cached.
func TestSingleflightLeaderDisconnect(t *testing.T) {
	dir := t.TempDir()
	// ~1s of enumeration single-threaded: a wide window for the follower
	// to attach and the leader to vanish.
	if err := graph.WriteFormatFile(filepath.Join(dir, "slow.bin"), gen.GNP(200, 0.3, 9), graph.FormatBinary); err != nil {
		t.Fatal(err)
	}
	_, hs := newTestServer(t, Config{DataDir: dir, DefaultThreads: 1})
	const body = `{"graph":"slow.bin","k":2,"q":6,"mode":"count"}`

	lctx, lcancel := context.WithCancel(context.Background())
	defer lcancel()
	lreq, err := http.NewRequestWithContext(lctx, http.MethodPost, hs.URL+"/query", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	lreq.Header.Set("Content-Type", "application/json")
	leaderErr := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(lreq)
		if err == nil {
			resp.Body.Close()
		}
		leaderErr <- err
	}()

	// Wait until the leader's enumeration is genuinely executing.
	deadline := time.Now().Add(10 * time.Second)
	for stats(t, hs.URL)["executions"] < 1 {
		if time.Now().After(deadline) {
			t.Fatal("leader never started executing")
		}
		time.Sleep(10 * time.Millisecond)
	}

	type answer struct {
		code  int
		count int64
		err   error
	}
	followed := make(chan answer, 1)
	go func() {
		resp, err := http.Post(hs.URL+"/query", "application/json", strings.NewReader(body))
		if err != nil {
			followed <- answer{err: err}
			return
		}
		defer resp.Body.Close()
		data, _ := io.ReadAll(resp.Body)
		var out apiResponse
		if resp.StatusCode == http.StatusOK {
			if err := json.Unmarshal(data, &out); err != nil {
				followed <- answer{err: err}
				return
			}
		}
		followed <- answer{code: resp.StatusCode, count: out.Count}
	}()

	// Let the follower attach to the in-flight call, then kill the leader.
	time.Sleep(100 * time.Millisecond)
	lcancel()
	if err := <-leaderErr; err == nil {
		t.Fatal("leader request completed despite cancellation")
	}

	got := <-followed
	if got.err != nil {
		t.Fatalf("follower: %v", got.err)
	}
	if got.code != http.StatusOK || got.count <= 0 {
		t.Fatalf("follower got status %d count %d; the leader's disconnect failed the shared flight", got.code, got.count)
	}

	// The finished flight is cached, and the leader's disconnect caused no
	// second execution.
	code, again := postQuery(t, hs.URL, body)
	if code != http.StatusOK || again.Count != got.count {
		t.Fatalf("post-flight query: status %d count %d, follower saw %d", code, again.Count, got.count)
	}
	if !again.Cached {
		t.Error("post-flight query was not served from cache")
	}
	m := stats(t, hs.URL)
	if m["executions"] != 1 {
		t.Errorf("executions = %d, want exactly 1", m["executions"])
	}
	if m["flight_shared"] != 1 {
		t.Errorf("flight_shared = %d, want 1 (the follower)", m["flight_shared"])
	}
}
