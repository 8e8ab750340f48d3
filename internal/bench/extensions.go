package bench

// Extension experiments beyond the paper's own tables: the coloring upper
// bound from the Maplex line of related work slotted into the Table 5
// ablation grid, and the binary-search maximum-k-plex reduction next to
// the greedy heuristic. Both are extensions, not reproductions (README,
// "Benchmarks").

import (
	"context"
	"fmt"
	"time"

	"repro/internal/kplex"
)

// ExtendedUBAlgos returns the Table 5 grid extended with the coloring
// bound variant.
func ExtendedUBAlgos() []Algo {
	algos := AblationUBAlgos()
	colored := Algo{"Ours\\ub+color", func(k, q int) kplex.Options {
		o := kplex.NewOptions(k, q)
		o.UpperBound = kplex.UBColor
		return o
	}}
	// Keep "Ours" as the last column, as in the paper's tables.
	out := make([]Algo, 0, len(algos)+1)
	out = append(out, algos[:len(algos)-1]...)
	out = append(out, colored, algos[len(algos)-1])
	return out
}

// TableUBColor prints the upper-bound ablation including the coloring
// bound (extension of paper Table 5).
func (c *Config) TableUBColor() error {
	return c.ablationTable("Table 5x — Upper bounding incl. coloring bound (sec, extension)", ExtendedUBAlgos())
}

// TableMaximum compares the maximum-k-plex solver with the greedy
// heuristic's lower bound on the ablation datasets (extension; the problem
// setting of the BS/kPlexS related work).
func (c *Config) TableMaximum() error {
	c.printf("Table M — Maximum k-plex: greedy vs binary search (extension)\n")
	c.printf("%-14s %2s %8s %8s %12s\n", "Network", "k", "greedy", "binsrch", "t_bin(s)")
	ctx := context.Background()
	for _, d := range c.ablationCases() {
		g := d.Build()
		for _, k := range []int{2, 3} {
			greedy := kplex.GreedyKPlex(g, k)

			t0 := time.Now()
			bin, err := kplex.FindMaximumKPlex(ctx, g, k)
			if err != nil {
				return fmt.Errorf("tableM %s k=%d binary: %w", d.Name, k, err)
			}
			tBin := time.Since(t0)

			c.printf("%-14s %2d %8d %8d %12s\n", d.Name, k, len(greedy), len(bin), FormatDuration(tBin))
		}
	}
	return nil
}
