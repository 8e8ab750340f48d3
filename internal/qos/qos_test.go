package qos

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"
)

func TestParseTenants(t *testing.T) {
	got, err := ParseTenants("gold:weight=3,rate=50,burst=100;bronze:weight=1,max=2; free ")
	if err != nil {
		t.Fatal(err)
	}
	want := []TenantConfig{
		{Name: "gold", Weight: 3, Rate: 50, Burst: 100},
		{Name: "bronze", Weight: 1, MaxConcurrent: 2},
		{Name: "free"},
	}
	if len(got) != len(want) {
		t.Fatalf("got %d tenants, want %d: %+v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("tenant %d: got %+v, want %+v", i, got[i], want[i])
		}
	}

	for _, bad := range []string{
		":weight=1",     // no name
		"a;a",           // duplicate
		"a:weight",      // not key=value
		"a:weight=0",    // zero weight
		"a:weight=-1",   // negative
		"a:rate=x",      // not a number
		"a:shinyness=9", // unknown key
	} {
		if _, err := ParseTenants(bad); err == nil {
			t.Errorf("ParseTenants(%q): expected error", bad)
		}
	}

	if got, err := ParseTenants("  ; ;"); err != nil || len(got) != 0 {
		t.Errorf("empty spec: got %v, %v", got, err)
	}
}

// TestTokenBucket drives the bucket with an injected clock: a burst of
// Burst admissions passes, the next is denied with a RetryAfter matching
// the refill rate, and after advancing the clock admission works again.
func TestTokenBucket(t *testing.T) {
	c := NewController(8, []TenantConfig{{Name: "a", Rate: 10, Burst: 3}})
	now := time.Unix(1000, 0)
	c.now = func() time.Time { return now }

	ctx := context.Background()
	var releases []func()
	for i := 0; i < 3; i++ {
		rel, err := c.Admit(ctx, "a")
		if err != nil {
			t.Fatalf("admission %d within burst: %v", i, err)
		}
		releases = append(releases, rel)
	}
	_, err := c.Admit(ctx, "a")
	var qe *QuotaError
	if !errors.As(err, &qe) {
		t.Fatalf("4th admission: got %v, want QuotaError", err)
	}
	if qe.Tenant != "a" {
		t.Errorf("QuotaError tenant %q", qe.Tenant)
	}
	// Empty bucket refilling at 10/s holds a full token after 100ms.
	if qe.RetryAfter <= 0 || qe.RetryAfter > 150*time.Millisecond {
		t.Errorf("RetryAfter %v, want ~100ms", qe.RetryAfter)
	}

	// Queued work is exempt from the bucket.
	if rel, err := c.AdmitQueued(ctx, "a"); err != nil {
		t.Errorf("AdmitQueued under empty bucket: %v", err)
	} else {
		rel()
	}

	now = now.Add(200 * time.Millisecond) // refills 2 tokens
	rel, err := c.Admit(ctx, "a")
	if err != nil {
		t.Fatalf("admission after refill: %v", err)
	}
	rel()
	for _, rel := range releases {
		rel()
	}

	snap := c.Snapshot()
	if len(snap) != 1 || snap[0].QuotaDenied != 1 {
		t.Errorf("snapshot %+v, want one tenant with QuotaDenied=1", snap)
	}
}

// TestWeightedFairGrants saturates a slot pool with two tenants whose
// queues never drain and counts grants: stride scheduling must split them
// 3:1 within 15% (the acceptance bound; the deterministic schedule is in
// fact exact to ±1). The rows are a 1-slot pool with instant releases and
// a 4-slot pool whose grants each hold their slot for 2 ms, with twice as
// many waiters per tenant as slots.
func TestWeightedFairGrants(t *testing.T) {
	for _, tc := range []struct {
		slots, waiters int
		hold           time.Duration
	}{
		{slots: 1, waiters: 4},
		{slots: 4, waiters: 8, hold: 2 * time.Millisecond},
	} {
		t.Run(fmt.Sprintf("slots=%d", tc.slots), func(t *testing.T) {
			c := NewController(tc.slots, []TenantConfig{
				{Name: "gold", Weight: 3},
				{Name: "bronze", Weight: 1},
			})
			ctx := context.Background()

			const total = 400
			counts := map[string]int{}
			var mu sync.Mutex
			granted := 0

			// Occupy every slot so all workers queue up before the first
			// counted grant: without the barrier, the first scheduled
			// goroutines could race through all of `total` before the other
			// tenant's workers even start, and the test would measure
			// goroutine scheduling, not the stride scheduler.
			var blockers []func()
			for i := 0; i < tc.slots; i++ {
				rel, err := c.Admit(ctx, "warmup")
				if err != nil {
					t.Fatal(err)
				}
				blockers = append(blockers, rel)
			}

			// Each tenant keeps tc.waiters admissions pending at all times;
			// every grant holds its slot for tc.hold, then releases and
			// re-queues, so both queues stay saturated.
			var wg sync.WaitGroup
			for _, name := range []string{"gold", "bronze"} {
				for i := 0; i < tc.waiters; i++ {
					wg.Add(1)
					go func(name string) {
						defer wg.Done()
						for {
							rel, err := c.Admit(ctx, name)
							if err != nil {
								t.Error(err)
								return
							}
							mu.Lock()
							if granted < total {
								counts[name]++
								granted++
							}
							done := granted >= total
							mu.Unlock()
							time.Sleep(tc.hold)
							rel()
							if done {
								return
							}
						}
					}(name)
				}
			}

			// Release the slots only once both tenants are fully queued.
			deadline := time.Now().Add(5 * time.Second)
			for {
				queued := map[string]int{}
				for _, ts := range c.Snapshot() {
					queued[ts.Name] = ts.Queued
				}
				if queued["gold"] == tc.waiters && queued["bronze"] == tc.waiters {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("workers never queued: %+v", queued)
				}
				time.Sleep(time.Millisecond)
			}
			for _, rel := range blockers {
				rel()
			}
			wg.Wait()

			share := float64(counts["gold"]) / float64(counts["gold"]+counts["bronze"])
			if math.Abs(share-0.75) > 0.15*0.75 {
				t.Errorf("gold share %.3f (gold=%d bronze=%d), want 0.75 within 15%%",
					share, counts["gold"], counts["bronze"])
			}
		})
	}
}

// TestPerTenantCap holds a capped tenant at its concurrency ceiling and
// checks that its next waiter stays queued while another tenant still gets
// slots from the same pool.
func TestPerTenantCap(t *testing.T) {
	c := NewController(4, []TenantConfig{{Name: "capped", MaxConcurrent: 1}})
	ctx := context.Background()

	rel1, err := c.Admit(ctx, "capped")
	if err != nil {
		t.Fatal(err)
	}
	short, cancel := context.WithTimeout(ctx, 50*time.Millisecond)
	defer cancel()
	if _, err := c.Admit(short, "capped"); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("second capped admission: got %v, want deadline", err)
	}
	// The pool still has 3 free slots for everyone else.
	rel2, err := c.Admit(ctx, "other")
	if err != nil {
		t.Fatalf("other tenant blocked by capped tenant: %v", err)
	}
	rel2()
	rel1()
	// Cap released: the tenant admits again.
	rel3, err := c.Admit(ctx, "capped")
	if err != nil {
		t.Fatal(err)
	}
	rel3()
}

// TestCancelDequeues cancels a queued waiter and verifies the queue drops
// it (no leak, no phantom grant): after the cancel, releasing the held
// slot must not strand it.
func TestCancelDequeues(t *testing.T) {
	c := NewController(1, nil)
	ctx := context.Background()
	rel, err := c.Admit(ctx, "a")
	if err != nil {
		t.Fatal(err)
	}
	cctx, cancel := context.WithCancel(ctx)
	errc := make(chan error, 1)
	go func() {
		_, err := c.Admit(cctx, "b")
		errc <- err
	}()
	// Wait until b is queued, then cancel it.
	deadline := time.Now().Add(5 * time.Second)
	for {
		snap := c.Snapshot()
		queued := 0
		for _, ts := range snap {
			queued += ts.Queued
		}
		if queued == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("waiter never queued")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled waiter: got %v", err)
	}
	rel()
	// The slot must be free and grantable.
	rel2, err := c.Admit(ctx, "c")
	if err != nil {
		t.Fatal(err)
	}
	rel2()
	if inUse(c) != 0 {
		t.Errorf("InUse %d after all releases, want 0", inUse(c))
	}
}

// TestPredictWait checks the estimate is zero before any hold history and
// positive, scaled by queue depth, afterwards.
func TestPredictWait(t *testing.T) {
	c := NewController(2, nil)
	if d := c.PredictWait(); d != 0 {
		t.Errorf("PredictWait with no history: %v, want 0", d)
	}
	rel, err := c.Admit(context.Background(), "a")
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(10 * time.Millisecond)
	rel()
	d := c.PredictWait()
	if d <= 0 {
		t.Errorf("PredictWait after a 10ms hold: %v, want > 0", d)
	}
	if d > time.Second {
		t.Errorf("PredictWait %v implausibly large for a 10ms hold", d)
	}
}

// TestReleaseIdempotent calls a release twice; the second call must be a
// no-op rather than freeing a phantom slot.
func TestReleaseIdempotent(t *testing.T) {
	c := NewController(1, nil)
	rel, err := c.Admit(context.Background(), "a")
	if err != nil {
		t.Fatal(err)
	}
	rel()
	rel()
	if inUse(c) != 0 {
		t.Fatalf("InUse %d, want 0", inUse(c))
	}
	// Pool must still hold exactly one slot.
	r1, err := c.Admit(context.Background(), "a")
	if err != nil {
		t.Fatal(err)
	}
	short, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if _, err := c.Admit(short, "a"); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("second slot materialized after double release: %v", err)
	}
	r1()
}

// TestConcurrentChurn hammers the controller from many goroutines across
// tenants (run under -race in CI): every admission must be released, slot
// accounting must balance, and nothing deadlocks.
func TestConcurrentChurn(t *testing.T) {
	c := NewController(4, []TenantConfig{
		{Name: "t0", Weight: 2, MaxConcurrent: 3},
		{Name: "t1", Rate: 1e9, Burst: 1e9}, // effectively unlimited
	})
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			name := fmt.Sprintf("t%d", g%3)
			for i := 0; i < 200; i++ {
				ctx, cancel := context.WithTimeout(context.Background(), time.Second)
				rel, err := c.Admit(ctx, name)
				if err == nil {
					rel()
				}
				cancel()
			}
		}(g)
	}
	wg.Wait()
	if n := inUse(c); n != 0 {
		t.Fatalf("InUse %d after churn, want 0", n)
	}
}

// inUse returns the number of slots the pool holds: the accounting the
// release and churn tests check balances back to zero.
func inUse(c *Controller) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.slots - c.free
}
