package kplex

// The streaming result path. Run delivers plexes through the OnPlex
// callback, which forces the caller to either materialise the result set
// ([][]int — unusable at the paper's result-set sizes) or to hand-roll the
// concurrency around a callback invoked from many workers. RunStream
// instead returns a bounded channel fed by all schedulers' workers, with
// two-way cancellation:
//
//   - ctx cancellation (a dropped HTTP client, a deadline) stops the
//     engine through the usual stop-flag path AND unblocks any worker
//     parked in a channel send, so a run on an abandoned stream never
//     leaks goroutines;
//   - conversely, the engine finishing (or failing) closes the channel,
//     which is the consumer's end-of-stream signal.
//
// The channel's bound (Options.StreamBuffer) is the backpressure knob: a
// slow consumer eventually blocks the enumeration workers rather than
// forcing the engine to buffer results, keeping memory flat no matter how
// large the result set is.

import (
	"context"

	"repro/internal/graph"
	"repro/internal/sink"
)

// DefaultStreamBuffer is the channel capacity used when
// Options.StreamBuffer is zero. Large enough that the enumeration workers
// rarely block on a consumer that is merely momentarily busy, small enough
// that an abandoned stream pins only a few KiB of plexes.
const DefaultStreamBuffer = 256

// StreamHandle is a live streaming enumeration run.
type StreamHandle struct {
	c    <-chan []int
	res  *Result
	st   *sink.Stream
	done chan struct{} // closed once Run has returned and res/err are set
	err  error
}

// C returns the result channel. It yields each maximal k-plex as a sorted
// slice of input-graph vertex ids (one consumer owns each slice; it is not
// reused) and is closed when the run completes, fails, or is cancelled.
func (h *StreamHandle) C() <-chan []int { return h.c }

// Result returns a pointer that is populated with the run's Result before
// the channel closes. Reading it is racy until C has been closed (or Wait
// has returned).
func (h *StreamHandle) Result() *Result { return h.res }

// Wait blocks until the run has fully terminated and returns its Result
// and terminal error (nil for a complete enumeration, ctx.Err() for a
// cancelled one). The caller must be draining C — or have cancelled the
// context — or Wait can deadlock behind a full channel.
func (h *StreamHandle) Wait() (Result, error) {
	<-h.done
	return *h.res, h.err
}

// RunStream starts an enumeration whose results are delivered over a
// bounded channel instead of the OnPlex callback. Validation errors are
// returned synchronously; after that the run proceeds on background
// goroutines under all the same scheduler options as Run (sequential,
// stages, steal). Cancelling ctx stops the engine and closes
// the channel promptly even if the consumer has stopped receiving.
//
// opts.OnPlex must be nil: the streaming path owns result delivery.
//
// RunStream is a thin wrapper over Prepare + RunStreamPrepared; callers
// streaming repeatedly over one graph should reuse a Prepared handle.
func RunStream(ctx context.Context, g graph.CSR, opts Options) (*StreamHandle, error) {
	if opts.OnPlex != nil {
		return nil, errStreamOnPlex
	}
	// Prepare validates against the stream's own OnPlex being installed
	// later, so a resumed run's SkipSeeds must not be rejected here. A
	// dead context keeps its contract — a handle whose channel closes
	// immediately with Wait() == ctx.Err() — but must not pay the O(n+m)
	// prologue, so it prepares the empty graph instead (RunPrepared
	// returns ctx.Err() before touching it).
	prepOpts := opts
	prepOpts.SkipSeeds = nil
	var target graph.CSR = g
	if ctx != nil && ctx.Err() != nil {
		target = &graph.Graph{}
	}
	p, err := Prepare(target, prepOpts)
	if err != nil {
		return nil, err
	}
	return RunStreamPrepared(ctx, p, opts)
}

// RunStreamPrepared is RunStream against a Prepared handle: the bounded-
// channel delivery and two-way cancellation of the streaming path without
// re-running the prologue.
func RunStreamPrepared(ctx context.Context, p *Prepared, opts Options) (*StreamHandle, error) {
	if opts.OnPlex != nil {
		return nil, errStreamOnPlex
	}
	buf := opts.StreamBuffer
	if buf <= 0 {
		buf = DefaultStreamBuffer
	}
	if ctx == nil {
		ctx = context.Background()
	}

	st := sink.NewStream(buf)
	runCtx, cancel := context.WithCancel(ctx)
	opts.OnPlex = func(p []int) {
		if !st.Emit(p) {
			// Consumer gone: fold the stream cancellation into the engine's
			// normal context path so every scheduler stops the same way.
			cancel()
		}
	}
	// Validate with the stream's own OnPlex installed, so rules that need a
	// result observer (a resumed run's SkipSeeds) accept the streaming path.
	if err := opts.Validate(); err != nil {
		cancel()
		return nil, err
	}

	h := &StreamHandle{c: st.C(), res: new(Result), st: st, done: make(chan struct{})}

	// Watcher: a cancelled context must unblock workers parked in Emit.
	// It exits when the run goroutine below calls cancel().
	go func() {
		<-runCtx.Done()
		st.Cancel()
	}()

	go func() {
		defer cancel()
		res, err := RunPrepared(runCtx, p, opts)
		*h.res = res
		h.err = err
		st.Close(err) // happens-before the channel close observed by the consumer
		close(h.done)
	}()
	return h, nil
}

// errStreamOnPlex rejects RunStream calls that also set OnPlex; the two
// delivery mechanisms are mutually exclusive.
var errStreamOnPlex = errValidation("kplex: RunStream owns Options.OnPlex; leave it nil")

type errValidation string

func (e errValidation) Error() string { return string(e) }
