package kplex

// Committed-seed collection. The seed-vertex decomposition reports every
// maximal k-plex from exactly one seed group, so an aggregate over one
// set of completed seed groups merges exactly with an aggregate over any
// disjoint set. A SeedCollector buffers each group's plexes through
// OnPlexSeed and commits them only when the group's OnSeedDone fires. The
// engine delivers every OnPlexSeed of a group before its OnSeedDone and
// suppresses OnSeedDone for groups a cancellation interrupted, so at any
// instant — in particular after a run that stopped early — the committed
// aggregates summarise exactly the done-set: a true lower bound of the
// full answer, which a run with SkipSeeds = the done-set completes to the
// exact one. Durable jobs checkpoint this state, deadline-bounded queries
// answer with it, and cluster workers ship it per range.

import (
	"fmt"
	"sync"
)

// CollectMember is one query a SeedCollector aggregates for. One walk can
// serve several members when they share a traversal (a batch group walks
// at its loosest q), so each member filters by its own threshold.
type CollectMember struct {
	Q    int // plexes with fewer vertices are not the member's (0 keeps all)
	TopN int // largest plexes kept in the member's aggregate
}

// CommitFunc observes one committed seed group: its collector-wide id, the
// number of plexes the group delivered (before member filtering), and the
// cumulative per-member aggregates and done-set including it. It runs with
// the collector's lock held, so a checkpoint taken inside it covers
// exactly the done-set. It must neither retain aggs or done nor call back
// into the collector.
type CommitFunc func(seed int, plexes int64, aggs []*Aggregate, done *SeedSet)

// SeedCollector accumulates committed per-seed results for one or more
// members over a seed id space of fixed size. Its methods are safe to call
// concurrently with the run it is installed in.
type SeedCollector struct {
	members  []CollectMember
	buffers  []pendingSeed // indexed by seed: the per-plex path is a slice access plus one per-seed mutex
	onCommit CommitFunc

	mu   sync.Mutex
	aggs []*Aggregate // cumulative per member; aggs[0].Stats carries the walk's counters
	done *SeedSet
}

// pendingSeed holds one seed group's uncommitted contributions: one
// aggregate per member of the installing walk, positionally aligned with
// its member list and allocated lazily — most seed groups contribute
// nothing.
type pendingSeed struct {
	mu     sync.Mutex
	plexes int64
	aggs   []*Aggregate
}

// NewSeedCollector returns an empty collector over seeds seed ids for the
// given members (at least one). onCommit, when non-nil, runs once per
// committed seed group.
func NewSeedCollector(seeds int, members []CollectMember, onCommit CommitFunc) *SeedCollector {
	c := &SeedCollector{
		members:  members,
		buffers:  make([]pendingSeed, seeds),
		onCommit: onCommit,
		aggs:     make([]*Aggregate, len(members)),
		done:     &SeedSet{},
	}
	for i, m := range members {
		c.aggs[i] = NewAggregate(m.TopN)
	}
	return c
}

// Resume seeds the collector with a previous run's committed state: the
// seeds it completed and one cumulative aggregate per member, which the
// collector takes ownership of. The run that continues it must skip those
// seeds (Options.SkipSeeds).
func (c *SeedCollector) Resume(done []int, aggs []*Aggregate) error {
	if len(aggs) != len(c.members) {
		return fmt.Errorf("%d aggregates for %d members", len(aggs), len(c.members))
	}
	for _, s := range done {
		if s < 0 || s >= len(c.buffers) {
			return fmt.Errorf("seed %d outside the %d-seed space", s, len(c.buffers))
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, s := range done {
		c.done.Add(s)
	}
	for i, a := range aggs {
		a.TopN = c.members[i].TopN
		c.aggs[i] = a
	}
	return nil
}

// Install chains the collector into o's OnPlexSeed and OnSeedDone hooks
// for one walk, keeping hooks already set (they run after the collector
// records the event). The walk's seed s is the collector's seed offset+s,
// and the walk serves the listed members (indices into the collector's
// members; none means all of them).
func (c *SeedCollector) Install(o *Options, offset int, members ...int) {
	if len(members) == 0 {
		members = make([]int, len(c.members))
		for i := range members {
			members[i] = i
		}
	}
	prevPlex, prevDone := o.OnPlexSeed, o.OnSeedDone
	o.OnPlexSeed = func(seed int, plex []int) {
		c.add(offset+seed, members, plex)
		if prevPlex != nil {
			prevPlex(seed, plex)
		}
	}
	o.OnSeedDone = func(seed int, partial Stats) {
		c.commit(offset+seed, members, partial)
		if prevDone != nil {
			prevDone(seed, partial)
		}
	}
}

// add buffers one plex into its seed group's pending aggregates, one per
// walk member whose size threshold the plex meets.
func (c *SeedCollector) add(seed int, members []int, plex []int) {
	buf := &c.buffers[seed]
	buf.mu.Lock()
	buf.plexes++
	if buf.aggs == nil {
		buf.aggs = make([]*Aggregate, len(members))
	}
	for pos, m := range members {
		if len(plex) < c.members[m].Q {
			continue
		}
		if buf.aggs[pos] == nil {
			buf.aggs[pos] = NewAggregate(c.members[m].TopN)
		}
		buf.aggs[pos].AddPlex(plex)
	}
	buf.mu.Unlock()
}

// commit folds a completed seed group into the cumulative aggregates. A
// repeated completion of the same seed is ignored.
func (c *SeedCollector) commit(seed int, members []int, partial Stats) {
	buf := &c.buffers[seed]
	buf.mu.Lock()
	pending, plexes := buf.aggs, buf.plexes
	buf.aggs, buf.plexes = nil, 0
	buf.mu.Unlock()

	c.mu.Lock()
	defer c.mu.Unlock()
	if c.done.Contains(seed) {
		return
	}
	c.done.Add(seed)
	for pos, a := range pending {
		if a != nil {
			c.aggs[members[pos]].Merge(a) // a carries no Stats; only the engine's partial do
		}
	}
	c.aggs[0].Stats.Add(partial)
	if c.onCommit != nil {
		c.onCommit(seed, plexes, c.aggs, c.done)
	}
}

// Locked runs fn with the collector's lock held over the view a
// CommitFunc receives; the same rules apply.
func (c *SeedCollector) Locked(fn func(aggs []*Aggregate, done *SeedSet)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	fn(c.aggs, c.done)
}

// Snapshot returns copies of the committed per-member aggregates (ready
// to marshal) and of the done-set — exactly the seeds a resumed run
// skips.
func (c *SeedCollector) Snapshot() ([]*Aggregate, *SeedSet) {
	c.mu.Lock()
	defer c.mu.Unlock()
	aggs := make([]*Aggregate, len(c.aggs))
	for i, a := range c.aggs {
		aggs[i] = a.Snapshot()
	}
	return aggs, NewSeedSet(c.done.Seeds()...)
}
