// Package qos is kplexd's multi-tenant admission controller: a fixed pool
// of enumeration slots shared between tenants by stride (weighted-fair)
// scheduling, with an optional token-bucket rate quota and concurrency cap
// per tenant. It replaces the server's bare counting semaphore — under
// saturation a tenant's share of granted slots converges to its weight
// share instead of FIFO luck, one tenant cannot starve the rest, and
// rate-limited tenants are turned away with a computed Retry-After rather
// than queued without bound.
//
// The controller is deliberately small: a single mutex, per-tenant FIFO
// waiter queues, and one grant loop. Interactive admission (Admit) charges
// the tenant's token bucket and is bounded by the caller's context;
// queued-work admission (AdmitQueued) skips the bucket — background jobs
// and leased ranges are already-accepted work and must eventually run — but
// still shares the weighted-fair slot queue.
package qos

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// TenantConfig declares one tenant's quality-of-service profile. The zero
// value of every field means "unconstrained": weight 1, no rate quota, no
// concurrency cap.
type TenantConfig struct {
	// Name identifies the tenant (the X-Kplexd-Tenant header value).
	Name string
	// Weight is the tenant's share of slots under contention, relative to
	// the other tenants' weights (default 1, must be > 0 when set).
	Weight float64
	// Rate is the sustained admission quota in queries per second; 0 means
	// no quota. Enforced as a token bucket: each interactive admission
	// spends one token, tokens refill at Rate up to Burst.
	Rate float64
	// Burst is the token-bucket capacity (default max(Rate, 1) when Rate
	// is set). It bounds how far above Rate a briefly-idle tenant can
	// spike.
	Burst float64
	// MaxConcurrent caps the tenant's simultaneously held slots; 0 means
	// bounded only by the pool size.
	MaxConcurrent int
}

// QuotaError reports an interactive admission denied by the tenant's token
// bucket. RetryAfter is when the bucket will next hold a full token.
type QuotaError struct {
	Tenant     string
	RetryAfter time.Duration
}

func (e *QuotaError) Error() string {
	return fmt.Sprintf("tenant %q over rate quota (retry in %s)", e.Tenant, e.RetryAfter.Round(time.Millisecond))
}

// ParseTenants parses the -tenants flag syntax: semicolon-separated tenant
// entries, each "name" or "name:key=value,key=value" with keys weight,
// rate, burst and max. Example:
//
//	gold:weight=3,rate=50,burst=100;bronze:weight=1,max=2
func ParseTenants(spec string) ([]TenantConfig, error) {
	var out []TenantConfig
	seen := map[string]bool{}
	for _, entry := range strings.Split(spec, ";") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		name, params, _ := strings.Cut(entry, ":")
		name = strings.TrimSpace(name)
		if name == "" {
			return nil, fmt.Errorf("tenants: entry %q has no name", entry)
		}
		if seen[name] {
			return nil, fmt.Errorf("tenants: duplicate tenant %q", name)
		}
		seen[name] = true
		tc := TenantConfig{Name: name}
		for _, kv := range strings.Split(params, ",") {
			kv = strings.TrimSpace(kv)
			if kv == "" {
				continue
			}
			key, val, ok := strings.Cut(kv, "=")
			if !ok {
				return nil, fmt.Errorf("tenants: %s: parameter %q is not key=value", name, kv)
			}
			f, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
			if err != nil || f < 0 {
				return nil, fmt.Errorf("tenants: %s: bad value %q for %s", name, val, key)
			}
			switch strings.TrimSpace(key) {
			case "weight":
				if f <= 0 {
					return nil, fmt.Errorf("tenants: %s: weight must be > 0", name)
				}
				tc.Weight = f
			case "rate":
				tc.Rate = f
			case "burst":
				tc.Burst = f
			case "max":
				tc.MaxConcurrent = int(f)
			default:
				return nil, fmt.Errorf("tenants: %s: unknown parameter %q", name, key)
			}
		}
		out = append(out, tc)
	}
	return out, nil
}

// waiter is one admission request queued on its tenant.
type waiter struct {
	t       *tenant
	ready   chan struct{}
	granted bool
}

// tenant is the controller's per-tenant state: configuration, the stride
// scheduler's virtual pass, the FIFO of waiters, the token bucket, and
// counters for introspection.
type tenant struct {
	cfg     TenantConfig
	stride  float64 // 1 / weight: virtual time one grant advances this tenant
	pass    float64 // next grant's virtual finish time
	queue   []*waiter
	running int

	tokens     float64 // token bucket level; meaningful only when cfg.Rate > 0
	lastRefill time.Time

	admitted    int64
	quotaDenied int64
}

// Controller shares a fixed pool of slots between tenants. All methods are
// safe for concurrent use.
type Controller struct {
	slots int
	now   func() time.Time // injected in tests

	mu       sync.Mutex
	free     int
	waiting  int
	vclock   float64 // global virtual time: the last granted waiter's start tag
	tenants  map[string]*tenant
	holdEWMA float64 // smoothed slot hold duration, seconds
}

// NewController builds a controller over slots enumeration slots.
// Configured tenants get their declared profile; any other tenant name is
// materialized on first use with the default profile (weight 1, no quota,
// no cap), so an unconfigured deployment behaves exactly like the old
// global semaphore.
func NewController(slots int, tenants []TenantConfig) *Controller {
	if slots < 1 {
		slots = 1
	}
	c := &Controller{
		slots:   slots,
		free:    slots,
		now:     time.Now,
		tenants: make(map[string]*tenant, len(tenants)+1),
	}
	for _, tc := range tenants {
		c.tenants[tc.Name] = newTenant(tc, c.now())
	}
	return c
}

func newTenant(tc TenantConfig, now time.Time) *tenant {
	if tc.Weight <= 0 {
		tc.Weight = 1
	}
	if tc.Rate > 0 && tc.Burst <= 0 {
		tc.Burst = max(tc.Rate, 1)
	}
	return &tenant{
		cfg:        tc,
		stride:     1 / tc.Weight,
		tokens:     tc.Burst, // a fresh tenant starts with a full bucket
		lastRefill: now,
	}
}

// tenantLocked resolves (or lazily creates) the tenant record for name.
func (c *Controller) tenantLocked(name string) *tenant {
	t := c.tenants[name]
	if t == nil {
		t = newTenant(TenantConfig{Name: name}, c.now())
		c.tenants[name] = t
	}
	return t
}

// refillLocked advances t's token bucket to now.
func (c *Controller) refillLocked(t *tenant) {
	now := c.now()
	dt := now.Sub(t.lastRefill).Seconds()
	if dt > 0 {
		t.tokens = min(t.cfg.Burst, t.tokens+t.cfg.Rate*dt)
	}
	t.lastRefill = now
}

// Admit acquires one slot for an interactive request from tenant name,
// charging its token bucket. It returns a release function that must be
// called exactly once, a *QuotaError when the bucket is empty, or ctx's
// error when the caller gives up before a slot frees.
func (c *Controller) Admit(ctx context.Context, name string) (func(), error) {
	return c.admit(ctx, name, true)
}

// AdmitQueued acquires one slot for already-accepted queued work (a
// background job, a leased seed range) from tenant name. No token is
// charged — queued work was admitted when it was submitted and must
// eventually run — but the wait shares the weighted-fair queue, so a heavy
// tenant's jobs cannot crowd out another tenant's queries.
func (c *Controller) AdmitQueued(ctx context.Context, name string) (func(), error) {
	return c.admit(ctx, name, false)
}

func (c *Controller) admit(ctx context.Context, name string, charge bool) (func(), error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	c.mu.Lock()
	t := c.tenantLocked(name)
	if charge && t.cfg.Rate > 0 {
		c.refillLocked(t)
		if t.tokens < 1 {
			wait := time.Duration((1 - t.tokens) / t.cfg.Rate * float64(time.Second))
			t.quotaDenied++
			c.mu.Unlock()
			return nil, &QuotaError{Tenant: name, RetryAfter: wait}
		}
		t.tokens--
	}
	w := &waiter{t: t, ready: make(chan struct{})}
	t.queue = append(t.queue, w)
	c.waiting++
	c.grantLocked()
	granted := w.granted
	c.mu.Unlock()
	if granted {
		return c.releaseFunc(t), nil
	}
	select {
	case <-w.ready:
		return c.releaseFunc(t), nil
	case <-ctx.Done():
		c.mu.Lock()
		if w.granted {
			// Raced a grant against the cancellation: the slot was handed
			// to a caller that is no longer taking it, so put it straight
			// back through the grant path.
			t.running--
			c.free++
			c.grantLocked()
		} else {
			c.dequeueLocked(w)
		}
		c.mu.Unlock()
		return nil, ctx.Err()
	}
}

// dequeueLocked removes a cancelled, ungranted waiter from its tenant.
func (c *Controller) dequeueLocked(w *waiter) {
	q := w.t.queue
	for i, x := range q {
		if x == w {
			w.t.queue = append(q[:i], q[i+1:]...)
			c.waiting--
			return
		}
	}
}

// grantLocked hands free slots to waiters in stride order: among tenants
// with a waiter and headroom under their concurrency cap, the one with the
// smallest virtual pass goes first; each grant advances the winner's pass
// by its stride (1/weight), so under saturation grant counts converge to
// weight shares. A tenant idle for a while rejoins at the global virtual
// clock rather than its stale pass, so idling banks no credit.
func (c *Controller) grantLocked() {
	for c.free > 0 {
		var best *tenant
		for _, t := range c.tenants {
			if len(t.queue) == 0 {
				continue
			}
			if cap := t.cfg.MaxConcurrent; cap > 0 && t.running >= cap {
				continue
			}
			if best == nil || t.pass < best.pass ||
				(t.pass == best.pass && t.cfg.Name < best.cfg.Name) {
				best = t
			}
		}
		if best == nil {
			return
		}
		start := max(best.pass, c.vclock)
		best.pass = start + best.stride
		c.vclock = start
		w := best.queue[0]
		best.queue = best.queue[1:]
		c.waiting--
		best.running++
		best.admitted++
		c.free--
		w.granted = true
		close(w.ready)
	}
}

// releaseFunc returns the once-only release closure for a granted slot,
// folding the hold duration into the EWMA that PredictWait serves from.
func (c *Controller) releaseFunc(t *tenant) func() {
	start := c.now()
	var once sync.Once
	return func() {
		once.Do(func() {
			held := c.now().Sub(start).Seconds()
			c.mu.Lock()
			const alpha = 0.2
			if c.holdEWMA == 0 {
				c.holdEWMA = held
			} else {
				c.holdEWMA += alpha * (held - c.holdEWMA)
			}
			t.running--
			c.free++
			c.grantLocked()
			c.mu.Unlock()
		})
	}
}

// PredictWait estimates how long a new arrival would wait for a slot:
// the current queue depth spread over the pool, paced by the smoothed
// slot-hold duration. Zero when the controller has no hold history yet —
// callers fall back to their own latency statistics.
func (c *Controller) PredictWait() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.holdEWMA == 0 {
		return 0
	}
	drain := c.holdEWMA * float64(c.waiting+1) / float64(c.slots)
	return time.Duration(drain * float64(time.Second))
}

// TenantSnapshot is one tenant's introspection record.
type TenantSnapshot struct {
	Name        string  `json:"name"`
	Weight      float64 `json:"weight"`
	Running     int     `json:"running"`
	Queued      int     `json:"queued"`
	Admitted    int64   `json:"admitted"`
	QuotaDenied int64   `json:"quotaDenied"`
}

// Snapshot returns per-tenant admission state, sorted by tenant name.
func (c *Controller) Snapshot() []TenantSnapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]TenantSnapshot, 0, len(c.tenants))
	for _, t := range c.tenants {
		out = append(out, TenantSnapshot{
			Name:        t.cfg.Name,
			Weight:      t.cfg.Weight,
			Running:     t.running,
			Queued:      len(t.queue),
			Admitted:    t.admitted,
			QuotaDenied: t.quotaDenied,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
