package main

import (
	"testing"
	"time"
)

func TestCellWeightedMedianCountsEachCellOnce(t *testing.T) {
	runs := func(secs ...float64) []cellRun {
		var out []cellRun
		for _, s := range secs {
			out = append(out, cellRun{wall: time.Duration(s * float64(time.Second)), scale: 1})
		}
		return out
	}
	// The cheap cell ran nine times; the plain median of all eleven runs
	// would be its time, though it is one cell of three.
	cells := [][]cellRun{runs(1, 1, 1, 1, 1, 1, 1, 1, 1), runs(3), runs(5)}
	if got := cellWeightedMedian(cells); got != 3 {
		t.Fatalf("cellWeightedMedian = %v, want 3", got)
	}
	if got := cellWeightedMedian([][]cellRun{runs(2, 4, 6)}); got != 4 {
		t.Fatalf("cellWeightedMedian of one cell = %v, want its median 4", got)
	}
}
