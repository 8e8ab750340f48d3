// Package bench contains the evaluation harness: the synthetic dataset
// suite standing in for the paper's Table 2 graphs, and one runner per
// table/figure of the paper's Section 7 that prints the corresponding rows
// or series. Absolute times differ from the paper (different hardware,
// language and datasets); the comparisons between algorithms are what the
// harness reproduces.
package bench

import (
	"sort"

	"repro/internal/gen"
	"repro/internal/graph"
)

// Class partitions datasets by size the way Section 7 does.
type Class string

const (
	Small  Class = "small"
	Medium Class = "medium"
	Large  Class = "large"
	// Stress marks workloads built for a specific stress scenario rather
	// than a paper dataset; they are excluded from the paper-reproduction
	// tables and figures and picked up by name where needed.
	Stress Class = "stress"
)

// Dataset is a named synthetic graph. Build is deterministic (fixed seed),
// so every run of the harness sees identical inputs.
type Dataset struct {
	Name   string
	Class  Class
	Analog string // the Table 2 graph this stands in for
	Build  func() *graph.Graph
	// Params lists the (k, q) pairs the paper-style experiments use on
	// this dataset, scaled to the synthetic sizes.
	Params []KQ
}

// KQ is one (k, q) experiment setting.
type KQ struct{ K, Q int }

// Suite returns the full dataset suite, ordered small to large. The
// generators are chosen so that degree skew, degeneracy and community
// structure track the corresponding real dataset class: GNP for the small
// dense collaboration graph, Chung-Lu power laws for the social graphs,
// Barabási-Albert for pokec-style growth networks, RMAT for web crawls,
// and planted communities for com-dblp (which is itself a network with
// strong ground-truth communities).
func Suite() []Dataset {
	return []Dataset{
		{
			Name: "jazz-syn", Class: Small, Analog: "jazz",
			Build:  func() *graph.Graph { return gen.GNP(198, 0.14, 101) },
			Params: []KQ{{2, 6}, {3, 6}, {4, 9}},
		},
		{
			Name: "wiki-vote-syn", Class: Small, Analog: "wiki-vote",
			Build:  func() *graph.Graph { return gen.ChungLu(2000, 28, 2.15, 102) },
			Params: []KQ{{2, 12}, {3, 24}, {4, 30}},
		},
		{
			Name: "lastfm-syn", Class: Small, Analog: "lastfm",
			Build:  func() *graph.Graph { return gen.ChungLu(2400, 8, 2.4, 103) },
			Params: []KQ{{2, 8}, {3, 10}, {4, 12}},
		},
		{
			Name: "as-caida-syn", Class: Medium, Analog: "as-caida",
			Build:  func() *graph.Graph { return gen.ChungLu(5000, 4, 2.1, 104) },
			Params: []KQ{{2, 8}, {3, 10}, {4, 14}},
		},
		{
			Name: "epinions-syn", Class: Medium, Analog: "soc-epinions",
			Build:  func() *graph.Graph { return gen.ChungLu(4000, 22, 2.15, 105) },
			Params: []KQ{{2, 14}, {3, 28}, {4, 34}},
		},
		{
			Name: "slashdot-syn", Class: Medium, Analog: "soc-slashdot",
			Build:  func() *graph.Graph { return gen.ChungLu(4500, 20, 2.2, 106) },
			Params: []KQ{{2, 14}, {3, 28}, {4, 32}},
		},
		{
			Name: "email-syn", Class: Medium, Analog: "email-euall",
			Build:  func() *graph.Graph { return gen.ChungLu(6000, 6, 2.25, 107) },
			Params: []KQ{{2, 8}, {3, 10}, {4, 14}},
		},
		{
			Name: "dblp-syn", Class: Medium, Analog: "com-dblp",
			Build: func() *graph.Graph {
				return gen.Planted(gen.PlantedConfig{
					N: 6000, BackgroundP: 0.0008, Communities: 120,
					CommSize: 14, DropPerV: 2, Overlap: 3, Seed: 108,
				})
			},
			Params: []KQ{{2, 10}, {3, 8}, {4, 10}},
		},
		{
			Name: "amazon-syn", Class: Medium, Analog: "amazon0505",
			Build:  func() *graph.Graph { return gen.ChungLu(8000, 6, 2.9, 109) },
			Params: []KQ{{2, 4}, {3, 6}, {4, 8}},
		},
		{
			Name: "pokec-syn", Class: Medium, Analog: "soc-pokec",
			Build:  func() *graph.Graph { return gen.BarabasiAlbert(6000, 9, 110) },
			Params: []KQ{{2, 6}, {3, 8}, {4, 10}},
		},
		{
			Name: "skitter-syn", Class: Medium, Analog: "as-skitter",
			Build:  func() *graph.Graph { return gen.RMAT(13, 7, 0.57, 0.19, 0.19, 111) },
			Params: []KQ{{2, 22}, {3, 26}},
		},
		{
			Name: "enwiki-syn", Class: Large, Analog: "enwiki-2021",
			Build:  func() *graph.Graph { return gen.ChungLu(30000, 22, 2.2, 112) },
			Params: []KQ{{2, 52}, {3, 60}},
		},
		{
			Name: "arabic-syn", Class: Large, Analog: "arabic-2005",
			Build: func() *graph.Graph {
				return gen.Planted(gen.PlantedConfig{
					N: 30000, BackgroundP: 0.0002, Communities: 250,
					CommSize: 22, DropPerV: 2, Overlap: 4, Seed: 113,
				})
			},
			Params: []KQ{{2, 4}, {3, 8}},
		},
		{
			Name: "uk-syn", Class: Large, Analog: "uk-2005",
			Build:  func() *graph.Graph { return gen.BarabasiAlbert(25000, 11, 114) },
			Params: []KQ{{2, 6}, {3, 8}},
		},
		{
			Name: "it-syn", Class: Large, Analog: "it-2004",
			Build:  func() *graph.Graph { return gen.RMAT(14, 6, 0.57, 0.19, 0.19, 115) },
			Params: []KQ{{2, 24}, {3, 28}},
		},
		{
			Name: "webbase-syn", Class: Large, Analog: "webbase-2001",
			Build:  func() *graph.Graph { return gen.ChungLu(40000, 12, 2.35, 116) },
			Params: []KQ{{2, 16}, {3, 30}},
		},
		{
			// Overlapping planted communities of very different local
			// density: a few seeds own almost all of the search tree, the
			// worst case for straggler splitting and stealing.
			Name: "straggler-syn", Class: Stress, Analog: "straggler stress",
			Build: func() *graph.Graph {
				return gen.Planted(gen.PlantedConfig{
					N: 3000, BackgroundP: 0.002, Communities: 30,
					CommSize: 24, DropPerV: 2, Overlap: 6, Seed: 11,
				})
			},
			Params: []KQ{{3, 9}, {2, 8}},
		},
	}
}

// ByName returns the named dataset.
func ByName(name string) (Dataset, bool) {
	for _, d := range Suite() {
		if d.Name == name {
			return d, true
		}
	}
	return Dataset{}, false
}

// Names lists all dataset names, sorted.
func Names() []string {
	var out []string
	for _, d := range Suite() {
		out = append(out, d.Name)
	}
	sort.Strings(out)
	return out
}

// ByClass returns the datasets of one class, in suite order.
func ByClass(c Class) []Dataset {
	var out []Dataset
	for _, d := range Suite() {
		if d.Class == c {
			out = append(out, d)
		}
	}
	return out
}
