package sink

import (
	"sync"
	"testing"
	"time"
)

func TestStreamDeliversInOrder(t *testing.T) {
	s := NewStream(4)
	go func() {
		for i := 0; i < 10; i++ {
			if !s.Emit([]int{i, i + 1}) {
				t.Error("Emit returned false on a live stream")
				break
			}
		}
		s.Close()
	}()
	i := 0
	for p := range s.C() {
		if p[0] != i || p[1] != i+1 {
			t.Fatalf("plex %d = %v", i, p)
		}
		i++
	}
	if i != 10 {
		t.Fatalf("received %d plexes, want 10", i)
	}
}

func TestStreamEmitCopies(t *testing.T) {
	s := NewStream(1)
	buf := []int{1, 2, 3}
	s.Emit(buf)
	buf[0] = 99 // producer reuses its buffer, as the engine's workers do
	got := <-s.C()
	if got[0] != 1 {
		t.Errorf("Emit aliased the producer's buffer: %v", got)
	}
	s.Close()
}

// Cancel must unblock a producer stuck on a full channel, and every later
// Emit must fail fast.
func TestStreamCancelUnblocksEmit(t *testing.T) {
	s := NewStream(1)
	s.Emit([]int{1}) // fills the buffer
	unblocked := make(chan bool)
	go func() { unblocked <- s.Emit([]int{2}) }()
	select {
	case <-unblocked:
		t.Fatal("Emit returned with a full channel and no consumer")
	case <-time.After(20 * time.Millisecond):
	}
	s.Cancel()
	select {
	case ok := <-unblocked:
		if ok {
			t.Error("Emit reported success after Cancel")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Cancel did not unblock Emit")
	}
	if s.Emit([]int{3}) {
		t.Error("Emit succeeded on a cancelled stream")
	}
	s.Cancel() // idempotent
	s.Close()
}

// Concurrent producers with a cancelling consumer: no panic, no deadlock,
// and everything delivered before the cancel is intact.
func TestStreamConcurrentEmitAndCancel(t *testing.T) {
	s := NewStream(8)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(base int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				if !s.Emit([]int{base, i}) {
					return
				}
			}
		}(w)
	}
	for i := 0; i < 50; i++ {
		<-s.C()
	}
	s.Cancel()
	wg.Wait()
	s.Close()
	for range s.C() { // drain the buffered tail
	}
}
