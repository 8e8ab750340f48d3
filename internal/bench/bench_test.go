package bench

import (
	"strings"
	"testing"
	"time"

	"repro/internal/kplex"
)

func TestSuiteWellFormed(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range Suite() {
		if seen[d.Name] {
			t.Fatalf("duplicate dataset %s", d.Name)
		}
		seen[d.Name] = true
		if d.Analog == "" || d.Build == nil || len(d.Params) == 0 {
			t.Fatalf("dataset %s incomplete", d.Name)
		}
		for _, kq := range d.Params {
			o := kplex.NewOptions(kq.K, kq.Q)
			if err := o.Validate(); err != nil {
				t.Fatalf("dataset %s params %+v invalid: %v", d.Name, kq, err)
			}
		}
	}
	if _, ok := ByName("jazz-syn"); !ok {
		t.Fatal("ByName failed for jazz-syn")
	}
	if _, ok := ByName("nope"); ok {
		t.Fatal("ByName found a ghost")
	}
	if len(Names()) != len(Suite()) {
		t.Fatal("Names() length mismatch")
	}
	if len(ByClass(Small))+len(ByClass(Medium))+len(ByClass(Large))+len(ByClass(Stress)) != len(Suite()) {
		t.Fatal("classes do not partition the suite")
	}
}

func TestSuiteDeterministicBuilds(t *testing.T) {
	for _, d := range ByClass(Small) {
		a, b := d.Build(), d.Build()
		if a.N() != b.N() || a.M() != b.M() {
			t.Fatalf("%s not deterministic", d.Name)
		}
	}
}

func TestAlgoFamilies(t *testing.T) {
	if got := len(SequentialAlgos()); got != 4 {
		t.Fatalf("SequentialAlgos = %d, want 4", got)
	}
	if got := len(AblationUBAlgos()); got != 3 {
		t.Fatalf("AblationUBAlgos = %d, want 3", got)
	}
	if got := len(AblationRuleAlgos()); got != 4 {
		t.Fatalf("AblationRuleAlgos = %d, want 4", got)
	}
	// Every produced option set must validate.
	for _, fam := range [][]Algo{SequentialAlgos(), AblationUBAlgos(), AblationRuleAlgos()} {
		for _, a := range fam {
			o := a.Opts(2, 8)
			if err := o.Validate(); err != nil {
				t.Fatalf("%s options invalid: %v", a.Name, err)
			}
		}
	}
}

func TestRunAndRunMeasured(t *testing.T) {
	d, _ := ByName("jazz-syn")
	g := d.Build()
	kq := d.Params[0]
	m, err := Run(g, kplex.NewOptions(kq.K, kq.Q))
	if err != nil {
		t.Fatal(err)
	}
	if m.Count <= 0 {
		t.Fatalf("jazz-syn %+v produced %d plexes; params need recalibration", kq, m.Count)
	}
	mm, err := RunMeasured(g, kplex.NewOptions(kq.K, kq.Q))
	if err != nil {
		t.Fatal(err)
	}
	if mm.Count != m.Count {
		t.Fatalf("measured run count %d != %d", mm.Count, m.Count)
	}
}

func TestFormatDuration(t *testing.T) {
	if got := FormatDuration(1234 * time.Millisecond); got != "1.23" {
		t.Fatalf("FormatDuration = %q", got)
	}
}

func TestConfigThreads(t *testing.T) {
	c := &Config{}
	if c.threads() < 1 || c.threads() > 16 {
		t.Fatalf("default threads = %d", c.threads())
	}
	c.Threads = 3
	if c.threads() != 3 {
		t.Fatalf("explicit threads = %d", c.threads())
	}
}

// TestQuickTable2 smoke-tests the cheapest runner end to end.
func TestQuickTable2(t *testing.T) {
	var sb strings.Builder
	c := &Config{Quick: true, Out: &sb}
	if err := c.Table2(); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"jazz-syn", "Δ", "pokec-syn"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Table2 output missing %q:\n%s", want, out)
		}
	}
}
