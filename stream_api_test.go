package kplex_test

// Public-API coverage of EnumerateStream: the stream must reproduce
// EnumerateAll exactly and honour cancellation, through the root package's
// re-exports alone.

import (
	"context"
	"testing"

	kplex "repro"
	"repro/internal/sink"
)

func TestPublicEnumerateStream(t *testing.T) {
	g := kplex.Planted(kplex.PlantedConfig{
		N: 100, BackgroundP: 0.02, Communities: 5, CommSize: 10,
		DropPerV: 1, Overlap: 2, Seed: 7,
	})
	const k, q = 2, 6
	want, wantRes, err := kplex.EnumerateAll(context.Background(), g, kplex.NewOptions(k, q))
	if err != nil {
		t.Fatal(err)
	}

	opts := kplex.NewOptions(k, q)
	opts.Threads = 4
	ch, res, err := kplex.EnumerateStream(context.Background(), g, opts)
	if err != nil {
		t.Fatal(err)
	}
	var got [][]int
	for p := range ch {
		got = append(got, p)
	}
	if !sink.Equal(got, want) {
		t.Errorf("stream yielded %d plexes, EnumerateAll %d; sets differ", len(got), len(want))
	}
	if res.Count != wantRes.Count {
		t.Errorf("stream Result.Count = %d, want %d", res.Count, wantRes.Count)
	}
}

func TestPublicEnumerateStreamCancel(t *testing.T) {
	g := kplex.ChungLu(200, 12, 2.3, 46)
	ctx, cancel := context.WithCancel(context.Background())
	opts := kplex.NewOptions(3, 8)
	opts.StreamBuffer = 2
	ch, _, err := kplex.EnumerateStream(ctx, g, opts)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for range ch {
		n++
		if n == 5 {
			cancel()
		}
	}
	if ctx.Err() == nil {
		t.Error("stream drained fully before cancellation took effect")
	}
	cancel()
}
