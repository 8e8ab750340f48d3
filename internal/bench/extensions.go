package bench

// Extension experiments beyond the paper's own tables: the coloring upper
// bound from the Maplex line of related work slotted into the Table 5
// ablation grid, and a maximum-k-plex comparison between the binary-search
// reduction and the incumbent branch-and-bound. Both are extensions, not
// reproductions (README, "Benchmarks").

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

// TableMaximum compares the two maximum-k-plex solvers and the greedy
// heuristic on the ablation datasets (extension; the problem setting of the
// BS/kPlexS related work).
func (c *Config) TableMaximum() error {
	c.printf("Table M — Maximum k-plex: greedy vs binary search vs BnB (extension)\n")
	c.printf("%-14s %2s %8s %8s %8s %12s %12s\n",
		"Network", "k", "greedy", "binsrch", "bnb", "t_bin(s)", "t_bnb(s)")
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

			t0 = time.Now()
			bnb, err := kplex.FindMaximumKPlexBnB(ctx, g, k)
			if err != nil {
				return fmt.Errorf("tableM %s k=%d bnb: %w", d.Name, k, err)
			}
			tBnB := time.Since(t0)

			if len(bin) != len(bnb) {
				return fmt.Errorf("tableM %s k=%d: solvers disagree (%d vs %d)",
					d.Name, k, len(bin), len(bnb))
			}
			c.printf("%-14s %2d %8d %8d %8d %12s %12s\n",
				d.Name, k, len(greedy), len(bin), len(bnb),
				FormatDuration(tBin), FormatDuration(tBnB))
		}
	}
	return nil
}
