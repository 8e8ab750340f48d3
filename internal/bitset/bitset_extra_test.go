package bitset

import (
	"strings"
	"testing"
)

func setOf(n int, elems ...int) *Set {
	s := New(n)
	for _, e := range elems {
		s.Add(e)
	}
	return s
}

func TestString(t *testing.T) {
	s := setOf(70, 0, 3, 68)
	got := s.String()
	for _, want := range []string{"0", "3", "68"} {
		if !strings.Contains(got, want) {
			t.Errorf("String() = %q, missing %s", got, want)
		}
	}
	if empty := New(10).String(); !strings.Contains(empty, "{") {
		t.Errorf("empty String() = %q", empty)
	}
}

func TestSliceAndWords(t *testing.T) {
	a := setOf(200, 0, 63, 64, 199)
	got := a.AppendTo(nil)
	want := []int{0, 63, 64, 199}
	if len(got) != len(want) {
		t.Fatalf("AppendTo(nil) = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("AppendTo(nil)[%d] = %d, want %d", i, got[i], want[i])
		}
	}
	if len(a.Words()) != (200+63)/64 {
		t.Errorf("Words() has %d words, want %d", len(a.Words()), (200+63)/64)
	}
	if a.Len() != 200 {
		t.Errorf("Len = %d, want 200", a.Len())
	}
}

func TestAnyOnEmpty(t *testing.T) {
	if got := New(64).Any(); got != -1 {
		t.Errorf("Any on empty = %d, want -1", got)
	}
	if got := setOf(64, 63).Any(); got != 63 {
		t.Errorf("Any = %d, want 63", got)
	}
}

func TestAppendToReusesDst(t *testing.T) {
	s := setOf(64, 3, 5)
	buf := make([]int, 0, 8)
	out := s.AppendTo(buf)
	if len(out) != 2 || out[0] != 3 || out[1] != 5 {
		t.Errorf("AppendTo = %v", out)
	}
	out2 := s.AppendTo(out)
	if len(out2) != 4 {
		t.Errorf("AppendTo should append, got %v", out2)
	}
}
