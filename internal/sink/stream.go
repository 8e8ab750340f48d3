package sink

// Stream is the in-memory counterpart of Writer: a bounded, channel-backed
// sink that hands each plex to exactly one consumer as it is found, instead
// of materialising the result set. It is the transport under the engine's
// streaming path (kplex.RunStream / the root EnumerateStream API) and the
// kplexd stream endpoint.
//
// The contract has three parties:
//
//   - Producers (enumeration workers) call Emit concurrently. Emit blocks
//     while the buffer is full — this is the backpressure that keeps a slow
//     consumer from forcing the engine to buffer billions of plexes — and
//     returns false once the stream is cancelled, letting workers stop
//     copying results nobody will read.
//   - The single owner calls Close exactly once, after every producer has
//     finished, closing the channel. The run's terminal error travels
//     beside the stream (kplex.StreamHandle.Wait), not through it.
//   - The consumer ranges over C until it is closed, or walks away by
//     calling Cancel (dropping an HTTP client does this via context
//     plumbing). Cancel unblocks every producer stuck in Emit.

import "sync"

// Stream is a bounded channel-backed result sink. The zero value is not
// usable; call NewStream.
type Stream struct {
	ch   chan []int
	done chan struct{} // closed by Cancel; unblocks producers

	cancelOnce sync.Once
	closeOnce  sync.Once
}

// NewStream returns a Stream whose channel buffers up to buf plexes
// (buf < 1 means an unbuffered channel).
func NewStream(buf int) *Stream {
	if buf < 0 {
		buf = 0
	}
	return &Stream{
		ch:   make(chan []int, buf),
		done: make(chan struct{}),
	}
}

// C returns the receive side. It is closed by Close.
func (s *Stream) C() <-chan []int { return s.ch }

// Emit copies p and delivers it to the consumer, blocking while the buffer
// is full. It reports false when the stream has been cancelled; producers
// should then stop emitting (the enumeration engine translates this into
// its stop flag). Safe for concurrent use.
func (s *Stream) Emit(p []int) bool {
	select {
	case <-s.done:
		return false
	default:
	}
	cp := append([]int(nil), p...)
	select {
	case s.ch <- cp:
		return true
	case <-s.done:
		return false
	}
}

// Cancel abandons the stream from the consumer side: every current and
// future Emit returns false without blocking. Idempotent; safe to call
// concurrently with Emit and Close.
func (s *Stream) Cancel() {
	s.cancelOnce.Do(func() { close(s.done) })
}

// Close closes the channel. It must be called exactly once, by the
// producer side, after all Emit calls have returned.
func (s *Stream) Close() {
	s.closeOnce.Do(func() { close(s.ch) })
}
