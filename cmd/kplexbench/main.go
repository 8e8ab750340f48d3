// Command kplexbench regenerates the tables and figures of the paper's
// evaluation section on the synthetic dataset suite.
//
// Usage:
//
//	kplexbench -all            # every table and figure (slow)
//	kplexbench -table 3        # one table (2-7)
//	kplexbench -figure 8       # one figure (7, 8, 9, 13, 14, 15)
//	kplexbench -ext ubcolor    # extension: coloring-bound ablation
//	kplexbench -ext maximum    # extension: maximum k-plex solvers
//	kplexbench -quick ...      # representative subset, ~1 minute total
//	kplexbench -threads 8 ...  # worker count for the parallel experiments
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"repro/internal/bench"
)

func main() {
	var (
		table   = flag.Int("table", 0, "regenerate one table (2-7)")
		figure  = flag.Int("figure", 0, "regenerate one figure (7, 8, 9, 13, 14, 15)")
		ext     = flag.String("ext", "", "extension experiment: ubcolor or maximum")
		all     = flag.Bool("all", false, "regenerate everything")
		quick   = flag.Bool("quick", false, "representative subset only")
		threads = flag.Int("threads", 0, "parallel worker count (default min(16, CPUs))")
	)
	flag.Parse()

	cfg := &bench.Config{Quick: *quick, Threads: *threads, Out: os.Stdout}

	type job struct {
		name string
		run  func() error
		ext  bool // selectable via -ext
	}
	jobs := map[string]job{
		"table2":   {name: "Table 2", run: cfg.Table2},
		"table3":   {name: "Table 3", run: cfg.Table3},
		"table4":   {name: "Table 4", run: cfg.Table4},
		"table5":   {name: "Table 5", run: cfg.Table5},
		"table6":   {name: "Table 6", run: cfg.Table6},
		"table7":   {name: "Table 7", run: cfg.Table7},
		"figure7":  {name: "Figure 7", run: cfg.Figure7},
		"figure8":  {name: "Figure 8", run: cfg.Figure8},
		"figure9":  {name: "Figure 9", run: cfg.Figure9},
		"figure13": {name: "Figure 13", run: cfg.Figure13},
		"figure14": {name: "Figure 14", run: cfg.Figure14},
		"figure15": {name: "Figure 15", run: cfg.Figure15},
		"ubcolor":  {name: "Table 5x (extension)", run: cfg.TableUBColor, ext: true},
		"maximum":  {name: "Table M (extension)", run: cfg.TableMaximum, ext: true},
	}
	order := []string{
		"table2", "table3", "figure7", "table4", "figure8",
		"table5", "table6", "figure9", "figure13", "figure14",
		"figure15", "table7", "ubcolor", "maximum",
	}

	var selected []string
	switch {
	case *all:
		selected = order
	case *table != 0:
		key := fmt.Sprintf("table%d", *table)
		if _, ok := jobs[key]; !ok {
			fmt.Fprintf(os.Stderr, "kplexbench: no such table %d (have 2-7)\n", *table)
			os.Exit(2)
		}
		selected = []string{key}
	case *figure != 0:
		key := fmt.Sprintf("figure%d", *figure)
		if _, ok := jobs[key]; !ok {
			fmt.Fprintf(os.Stderr, "kplexbench: no such figure %d (have 7, 8, 9, 13, 14, 15)\n", *figure)
			os.Exit(2)
		}
		selected = []string{key}
	case *ext != "":
		if j, ok := jobs[*ext]; !ok || !j.ext {
			var have []string
			for key, j := range jobs {
				if j.ext {
					have = append(have, key)
				}
			}
			sort.Strings(have)
			fmt.Fprintf(os.Stderr, "kplexbench: no such extension %q (have %s)\n", *ext, strings.Join(have, ", "))
			os.Exit(2)
		}
		selected = []string{*ext}
	default:
		flag.Usage()
		os.Exit(2)
	}

	for _, key := range selected {
		if err := jobs[key].run(); err != nil {
			fmt.Fprintf(os.Stderr, "kplexbench: %s: %v\n", jobs[key].name, err)
			os.Exit(1)
		}
		fmt.Println()
	}
}
