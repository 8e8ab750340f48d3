// Package kplex implements the paper's branch-and-bound algorithm for
// enumerating all maximal k-plexes with at least q vertices: search-space
// partitioning into seed-subgraph sub-tasks (Algorithm 2), the pivot-based
// Branch procedure (Algorithm 3), the upper bounds of Theorems 5.3/5.5/5.7,
// the vertex-pair pruning rules of Theorems 5.13-5.15, the Ours_P branching
// variant (Eq 4-6), and the parallel engine with timeout task splitting
// (Section 6) under its stage and work-stealing schedulers.
package kplex

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"
)

// UpperBoundStyle selects how the include-branch upper bound (Algorithm 3
// line 17) is computed. The ablation in the paper's Table 5 compares these.
type UpperBoundStyle int

const (
	// UBNone disables upper-bound pruning entirely ("Ours\ub").
	UBNone UpperBoundStyle = iota
	// UBOurs is the paper's bound: Eq (3), the min of the support bound
	// (Theorem 5.5 / Algorithm 4) and the degree bound (Theorem 5.3).
	UBOurs
	// UBSortFP is the FP-style bound ("Ours\ub+fp"): the same support
	// accounting but over candidates sorted by non-neighbour count, costing
	// an O(|C| log |C|) sort per recursion as FP's bound does.
	UBSortFP
	// UBColor is the graph-coloring bound of the Maplex line of work
	// reviewed in Section 2 ("Ours\ub+color"): greedily color G[C] and
	// charge at most k vertices per color class. An extension beyond the
	// paper's own bound, provided for the ablation harness.
	UBColor
)

func (s UpperBoundStyle) String() string {
	switch s {
	case UBNone:
		return "none"
	case UBOurs:
		return "ours"
	case UBSortFP:
		return "fp-sort"
	case UBColor:
		return "color"
	default:
		return fmt.Sprintf("UpperBoundStyle(%d)", int(s))
	}
}

// BranchingStyle selects what happens when the pivot of Algorithm 3 lines
// 7-10 lands in P.
type BranchingStyle int

const (
	// BranchRepick re-picks a pivot from the C non-neighbours of the P
	// pivot (Algorithm 3 lines 15-16); this is the paper's default "Ours".
	BranchRepick BranchingStyle = iota
	// BranchFaPlexen applies the FaPlexen multi-way branching of Eq (4)-(6)
	// instead; this is the "Ours_P" variant (and what ListPlex uses).
	BranchFaPlexen
)

func (s BranchingStyle) String() string {
	switch s {
	case BranchRepick:
		return "repick"
	case BranchFaPlexen:
		return "faplexen"
	default:
		return fmt.Sprintf("BranchingStyle(%d)", int(s))
	}
}

// PartitionStyle selects how each seed's search space is split into tasks.
type PartitionStyle int

const (
	// PartitionSubtasks is the paper's scheme: one task per subset
	// S ⊆ N²(v_i) with |S| ≤ k-1, candidates restricted to N(v_i). This is
	// what gives the O(n r1^k r2 γ_k^D) complexity.
	PartitionSubtasks PartitionStyle = iota
	// PartitionWhole2Hop is the FP-style scheme: a single task per seed
	// whose candidate set is the entire later 2-hop neighbourhood, giving
	// the looser O(γ_k^|C|) branch count the paper improves on.
	PartitionWhole2Hop
)

func (s PartitionStyle) String() string {
	switch s {
	case PartitionSubtasks:
		return "subtasks"
	case PartitionWhole2Hop:
		return "whole-2hop"
	default:
		return fmt.Sprintf("PartitionStyle(%d)", int(s))
	}
}

// SchedulerStyle selects how parallel workers obtain work (Section 6).
type SchedulerStyle int

// Both schedulers run the same worker loop over per-worker bounded deques
// (LIFO local pops, batched FIFO steal-half from random victims); they
// differ only in when a worker claims seeds. See steal.go.
const (
	// SchedulerStages is the paper's scheme: stages of M live seed groups,
	// one per worker, with a barrier between stages. Seeds pruned before
	// any task exists, and skipped seeds, take no stage slot. Maximises
	// cache locality on the shared seed subgraphs while stage barriers
	// bound memory to M live groups.
	SchedulerStages SchedulerStyle = iota
	// SchedulerSteal is the barrier-free scheme: a worker claims a fresh
	// seed whenever its deque runs dry and seeds remain. It keeps the stage
	// scheme's cache locality (workers run their own seed's tasks
	// back-to-front) while removing the stage barrier that leaves cores
	// idle on straggler-heavy inputs.
	SchedulerSteal
)

func (s SchedulerStyle) String() string {
	switch s {
	case SchedulerStages:
		return "stages"
	case SchedulerSteal:
		return "steal"
	default:
		return fmt.Sprintf("SchedulerStyle(%d)", int(s))
	}
}

// ParseScheduler resolves a scheduler name as the service surfaces accept
// it: "stages" (or empty) or "steal".
func ParseScheduler(name string) (SchedulerStyle, error) {
	switch name {
	case "", "stages":
		return SchedulerStages, nil
	case "steal":
		return SchedulerSteal, nil
	}
	return 0, fmt.Errorf("unknown scheduler %q", name)
}

// DefaultTaskTimeout is the τ_time the service surfaces (queries, jobs,
// cluster ranges) run multi-threaded enumerations with: short enough that
// one deep subtree cannot pin a worker while its siblings idle.
const DefaultTaskTimeout = 2 * time.Millisecond

// Options configures one enumeration run. The zero value is not valid; use
// NewOptions or fill K and Q explicitly. The ablation variants of the
// paper's Tables 5-6 are expressed by toggling UpperBound, UseSubtaskBound
// (R1) and UsePairPruning (R2).
type Options struct {
	// K is the k-plex relaxation parameter (k >= 1).
	K int
	// Q is the minimum size of reported k-plexes; must satisfy Q >= 2K-1 so
	// that the diameter-2 seed decomposition (Theorem 3.3) is sound.
	Q int

	// UpperBound selects the include-branch bound (Algorithm 3 line 17).
	UpperBound UpperBoundStyle
	// UseSubtaskBound enables rule R1: pruning initial sub-tasks whose
	// Theorem 5.7 bound is below Q.
	UseSubtaskBound bool
	// UsePairPruning enables rule R2: the vertex-pair compatibility matrix
	// of Theorems 5.13-5.15.
	UsePairPruning bool
	// Branching selects Ours (repick) vs Ours_P (FaPlexen Eq 4-6).
	Branching BranchingStyle
	// Partition selects the task decomposition (see PartitionStyle).
	Partition PartitionStyle
	// Threads is the number of workers; values < 1 mean 1 (sequential).
	Threads int
	// Scheduler selects the parallel work-distribution scheme; the zero
	// value is the paper's stage-based scheme (see SchedulerStyle).
	Scheduler SchedulerStyle
	// TaskTimeout is τ_time from Section 6: once a task has run this long,
	// further branches are materialised as new tasks for other workers to
	// steal. Zero disables splitting (tasks run to completion), which is
	// also the sequential default.
	TaskTimeout time.Duration
	// queueBound caps each worker's deque; when a deque is full the owner
	// runs overflow tasks inline, bounding queued memory at Threads ×
	// queueBound tasks. Zero means defaultQueueBound. A test hook: tiny
	// bounds force the overflow path.
	queueBound int

	// denseCrossover is the N¹-size ceiling under which seed-graph
	// construction takes the dense bit-parallel path: the Corollary 5.2
	// peel runs over a row-major adjacency matrix with word-parallel
	// AND/popcount kernels instead of per-vertex sorted merges. Above the
	// ceiling the merge-based path is used (the matrix is Θ(|N¹|²) bits, so
	// huge hub seeds would pay more to build it than it saves). Zero means
	// DefaultDenseCrossover; negative disables the dense path entirely. A
	// test hook for the dense/merge differential tests: both paths reach
	// the same fixed point, so it never changes the result set and does not
	// participate in ResultKey.
	denseCrossover int

	// StreamBuffer is the result-channel capacity of the streaming path
	// (RunStream / EnumerateStream): once this many plexes are queued and
	// unread, enumeration workers block until the consumer catches up.
	// Zero means DefaultStreamBuffer; it has no effect on Run.
	StreamBuffer int

	// UseCTCP enables the kPlexS-style core-truss co-pruning preprocessing
	// (see ReduceCTCP). Off by default — the paper's algorithm does not
	// use it; it is provided as the natural extension from the related
	// work and never changes the result set.
	UseCTCP bool

	// FirstOnly stops the run as soon as one maximal k-plex has been
	// reported. Used for existence queries (see FindMaximumKPlex); the
	// Result count may be slightly above 1 in parallel runs because
	// concurrent workers can emit before observing the stop flag.
	FirstOnly bool

	// OnPlex, when non-nil, receives every maximal k-plex as a sorted slice
	// of vertex ids of the input graph. It may be called concurrently from
	// multiple workers and must not retain the slice.
	OnPlex func(plex []int)

	// OnPlexSeed is the seed-attributed variant of OnPlex: it additionally
	// carries the id of the seed group (in [0, SeedSpace)) whose subproblem
	// produced the plex, so callers checkpointing at seed granularity can
	// buffer contributions per seed and commit them only when OnSeedDone
	// confirms the group is complete. Both callbacks fire when both are set.
	// Same contract as OnPlex: may be called concurrently, must not retain
	// the slice.
	OnPlexSeed func(seed int, plex []int)

	// OnSeedDone, when non-nil, fires exactly once per seed group the run
	// fully completes (including groups pruned to nothing, which report a
	// zero Stats), with the search counters accrued by that group. Every
	// OnPlexSeed delivery of the group happens before its OnSeedDone. Groups
	// interrupted by cancellation never report, which is what makes the
	// callback a safe commit point for crash recovery. Calls may arrive
	// concurrently from different workers for different seeds. Incompatible
	// with FirstOnly (an early stop abandons groups mid-flight). Enabling
	// the hook adds per-task bookkeeping (each seed's outstanding tasks are
	// tracked until the group retires), so leave it nil unless the caller
	// commits per seed.
	OnSeedDone func(seed int, partial Stats)

	// earlyStop, when non-nil, is an additional engine stop flag the caller
	// owns: storing true halts the run at the next cancellation check,
	// without the goroutine hop a context cancellation takes to reach the
	// engine's internal flag. Package-internal — the batch layer sets it
	// from its top-k saturation hook so the shared walk stops
	// deterministically (a sequential walk never starts another seed after
	// saturating).
	earlyStop *atomic.Bool

	// SkipSeeds names seed groups to skip entirely, without reporting them
	// to OnSeedDone: the resume path for a run whose listed seeds were
	// already enumerated and persisted. Seed ids refer to the deterministic
	// reduced decomposition (see SeedSpace); entries outside [0, SeedSpace)
	// fail the run. A non-empty skip set changes the reported result set,
	// and ResultKey reflects that.
	SkipSeeds *SeedSet

	// PhaseTimers enables per-phase wall-clock accounting: with it set,
	// Stats.SeedBuildNS and Stats.BranchNS report where enumeration time
	// went (seed-subgraph construction vs. branch-and-bound search). An
	// execution knob like Threads: it never changes the result set and
	// does not participate in ResultKey. Off by default so the hot path
	// pays nothing — the cost when enabled is two monotonic clock reads
	// per seed build and one per task, with no allocation.
	PhaseTimers bool
}

// DefaultDenseCrossover is the N¹-size ceiling for the dense bit-parallel
// seed build. Chosen by timing dense-only against merge-only seed-build
// passes on dense GNP, random regular and hub-heavy Barabási–Albert graphs:
// below it the Θ(|N¹|²/64)-word matrix peel beats the merge path
// comfortably; above it matrix construction starts to dominate on sparse
// hubs.
const DefaultDenseCrossover = 256

// denseCeiling resolves the dense-path ceiling, with 0 meaning disabled
// (so `len(n1) <= o.denseCeiling()` reads naturally).
func (o *Options) denseCeiling() int {
	switch {
	case o.denseCrossover < 0:
		return 0
	case o.denseCrossover == 0:
		return DefaultDenseCrossover
	}
	return o.denseCrossover
}

// NewOptions returns the paper's default configuration ("Ours"): full upper
// bounding, R1+R2 pruning, repick branching, sequential.
func NewOptions(k, q int) Options {
	return Options{
		K:               k,
		Q:               q,
		UpperBound:      UBOurs,
		UseSubtaskBound: true,
		UsePairPruning:  true,
		Branching:       BranchRepick,
		Threads:         1,
	}
}

// BasicOptions returns the "Basic" ablation variant of Table 6: the full
// framework with upper bounding but without R1 and R2.
func BasicOptions(k, q int) Options {
	o := NewOptions(k, q)
	o.UseSubtaskBound = false
	o.UsePairPruning = false
	return o
}

// Validate reports whether the options describe a well-formed run.
func (o *Options) Validate() error {
	if o.K < 1 {
		return fmt.Errorf("kplex: K must be >= 1, got %d", o.K)
	}
	if o.Q < 2*o.K-1 {
		return fmt.Errorf("kplex: Q must be >= 2K-1 = %d for the diameter-2 decomposition, got %d", 2*o.K-1, o.Q)
	}
	if o.TaskTimeout < 0 {
		return errors.New("kplex: TaskTimeout must be >= 0")
	}
	switch o.Scheduler {
	case SchedulerStages, SchedulerSteal:
	default:
		return fmt.Errorf("kplex: unknown Scheduler %d", int(o.Scheduler))
	}
	if o.StreamBuffer < 0 {
		return errors.New("kplex: StreamBuffer must be >= 0")
	}
	if o.OnSeedDone != nil && o.FirstOnly {
		return errors.New("kplex: OnSeedDone is incompatible with FirstOnly: an early stop abandons seed groups mid-flight, so completion callbacks would be meaningless")
	}
	if o.OnPlexSeed != nil && o.FirstOnly {
		return errors.New("kplex: OnPlexSeed is incompatible with FirstOnly: use OnPlex for existence queries")
	}
	if o.SkipSeeds.Len() > 0 && o.OnSeedDone == nil && o.OnPlex == nil && o.OnPlexSeed == nil {
		// A silent partial enumeration with no way to observe which part ran
		// is always a caller bug (typically a resume path that forgot to
		// re-install its hooks).
		return errors.New("kplex: SkipSeeds without OnSeedDone, OnPlex or OnPlexSeed would silently drop results; install a hook or clear the skip set")
	}
	return nil
}

// ValidateBatchMember reports whether the options may serve as one member
// of a shared-traversal batch (see RunBatch). On top of Validate, it
// rejects every per-query knob whose semantics are tied to owning the
// traversal: inside a batch, one walk at the group's loosest (k, q) cell
// serves every member, so a member-level FirstOnly would stop the walk for
// everyone, a member-level SkipSeeds names seed ids of the member's own
// (k, q) decomposition — not the group's — and the seed hooks
// (OnSeedDone / OnPlexSeed) would report the group cell's seed space,
// corrupting any member-level checkpoint built from them. OnPlex remains
// allowed: it receives exactly the member's own result set.
func (o *Options) ValidateBatchMember() error {
	if err := o.Validate(); err != nil {
		return err
	}
	switch {
	case o.FirstOnly:
		return errors.New("kplex: FirstOnly is not allowed on a batch member: the shared traversal serves every member, so one member's early stop would truncate the others' result sets; issue the existence query on its own")
	case o.SkipSeeds.Len() > 0:
		return errors.New("kplex: SkipSeeds is not allowed on a batch member: seed ids are defined by the member's own (K, Q, UseCTCP) decomposition, but the batch walks the group's loosest cell, so the skip set would silently skip the wrong subproblems; resume with a dedicated run")
	case o.OnSeedDone != nil:
		return errors.New("kplex: OnSeedDone is not allowed on a batch member: completion callbacks would carry seed ids of the shared group cell, not the member's own decomposition; checkpoint batches through the jobs layer instead")
	case o.OnPlexSeed != nil:
		return errors.New("kplex: OnPlexSeed is not allowed on a batch member: seed attribution refers to the shared group cell, not the member's own decomposition; use OnPlex for per-member delivery")
	}
	return nil
}

// ResultKey returns the canonical identity of the run's *result set*: the
// parameters that determine which maximal k-plexes are reported, with
// everything that only changes how the search is executed (bound style,
// pruning rules, branching, partition, scheduler, threads, timeouts,
// buffers) normalized away — the differential tests in this package pin
// down that those knobs never change the result set. Result caches key on
// (graph digest, ResultKey); two queries that differ only in execution
// strategy share one cache entry.
func (o *Options) ResultKey() string {
	key := fmt.Sprintf("k=%d,q=%d", o.K, o.Q)
	if o.FirstOnly {
		// FirstOnly runs report an arbitrary nonempty prefix of the result
		// set, so they are never interchangeable with full enumerations.
		key += ",first-only"
	}
	if o.SkipSeeds.Len() > 0 {
		// A resumed run reports only the complement of the skip set; it must
		// never share a cache entry with a full enumeration.
		key += ",skip=" + o.SkipSeeds.digest()
	}
	return key
}

// Stats are cumulative search counters, useful for the ablation analysis and
// for tests asserting that pruning rules actually fire.
type Stats struct {
	Seeds         int64 // task groups (seed subgraphs) built
	Tasks         int64 // (v_i, S) sub-tasks started
	TasksPrunedR1 int64 // sub-tasks pruned by Theorem 5.7 before starting
	Branches      int64 // Branch invocations (Algorithm 3 recursion bodies)
	UBPruned      int64 // include-branches cut by the Eq (3) bound
	Collapses     int64 // subtrees closed by the P∪C k-plex shortcut (lines 11-14)
	Repicks       int64 // pivots re-picked from C after landing in P (lines 15-16)
	Splits        int64 // tasks materialised by the timeout mechanism
	Steals        int64 // tasks transferred by steal-half batches (either scheduler)
	StealMisses   int64 // steal rounds that found every deque empty while tasks were in flight (either scheduler)
	Emitted       int64 // maximal k-plexes reported
	MaxPlexSize   int64 // largest reported k-plex (0 when none)
	DenseBuilds   int64 // seed groups whose peel took the dense bit-matrix path
	SeedBuildNS   int64 // ns spent building seed subgraphs (Options.PhaseTimers only; else 0)
	BranchNS      int64 // ns spent in branch-and-bound tasks (Options.PhaseTimers only; else 0)
}

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	s.Seeds += other.Seeds
	s.Tasks += other.Tasks
	s.TasksPrunedR1 += other.TasksPrunedR1
	s.Branches += other.Branches
	s.UBPruned += other.UBPruned
	s.Collapses += other.Collapses
	s.Repicks += other.Repicks
	s.Splits += other.Splits
	s.Steals += other.Steals
	s.StealMisses += other.StealMisses
	s.Emitted += other.Emitted
	s.DenseBuilds += other.DenseBuilds
	s.SeedBuildNS += other.SeedBuildNS
	s.BranchNS += other.BranchNS
	if other.MaxPlexSize > s.MaxPlexSize {
		s.MaxPlexSize = other.MaxPlexSize
	}
}

// Result summarises one enumeration run.
type Result struct {
	// Count is the number of maximal k-plexes with at least Q vertices.
	Count int64
	// Stats holds the search counters accumulated across all workers.
	Stats Stats
	// Elapsed is the wall-clock enumeration time (excluding graph loading,
	// matching the paper's measurement convention; core decomposition and
	// subgraph construction are included).
	Elapsed time.Duration
}
