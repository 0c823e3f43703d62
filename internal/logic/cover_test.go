package logic

import (
	"strings"
	"testing"
)

func TestParseCover(t *testing.T) {
	t.Parallel()
	c := MustParseCover("1-0 01-")
	if c.Inputs() != 3 || c.Len() != 2 {
		t.Fatalf("Inputs=%d Len=%d", c.Inputs(), c.Len())
	}
	if _, err := ParseCover("1-0 01"); err == nil {
		t.Error("mixed widths must fail")
	}
	empty, err := ParseCover("  ")
	if err != nil || empty.Len() != 0 {
		t.Error("blank cover must parse to empty")
	}
}

func TestCoverEval(t *testing.T) {
	t.Parallel()
	// f = a·b' + c  over (a,b,c)
	c := MustParseCover("10- --1")
	cases := []struct {
		in   []bool
		want bool
	}{
		{[]bool{true, false, false}, true},
		{[]bool{true, true, false}, false},
		{[]bool{false, false, true}, true},
		{[]bool{false, false, false}, false},
	}
	for _, cs := range cases {
		if got := c.Eval(cs.in); got != cs.want {
			t.Errorf("Eval(%v) = %v, want %v", cs.in, got, cs.want)
		}
	}
}

func TestCoverString(t *testing.T) {
	t.Parallel()
	c := MustParseCover("1-0 01-")
	if got := c.String(); got != "1-0\n01-" {
		t.Errorf("String = %q", got)
	}
	if !strings.Contains(c.String(), "\n") {
		t.Error("multi-cube String must be multi-line")
	}
}
