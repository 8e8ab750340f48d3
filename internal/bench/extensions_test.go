package bench

import (
	"strings"
	"testing"
)

func TestExtendedUBAlgosShape(t *testing.T) {
	algos := ExtendedUBAlgos()
	if len(algos) != len(AblationUBAlgos())+1 {
		t.Fatalf("expected one extra column, got %d algos", len(algos))
	}
	if algos[len(algos)-1].Name != "Ours" {
		t.Errorf("last column should be Ours, got %s", algos[len(algos)-1].Name)
	}
	found := false
	for _, a := range algos {
		if a.Name == "Ours\\ub+color" {
			found = true
			o := a.Opts(2, 8)
			if o.UpperBound.String() != "color" {
				t.Errorf("color variant uses bound %v", o.UpperBound)
			}
		}
	}
	if !found {
		t.Error("coloring column missing")
	}
}

// The extension runners must produce well-formed tables on a quick config;
// count-mismatch errors inside them would surface here.
func TestExtensionRunnersQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("extension runners take a few seconds")
	}
	var sb strings.Builder
	cfg := &Config{Quick: true, Out: &sb}
	if err := cfg.TableMaximum(); err != nil {
		t.Fatalf("TableMaximum: %v", err)
	}
	out := sb.String()
	if !strings.Contains(out, "Table M") || strings.Count(out, "\n") < 3 {
		t.Errorf("TableMaximum output malformed:\n%s", out)
	}
}
