package library

import (
	"math"
	"slices"
	"strings"
	"testing"
)

func TestParsePattern(t *testing.T) {
	t.Parallel()
	p, err := ParsePattern("NAND(a,INV(NAND(b,c)))")
	if err != nil {
		t.Fatal(err)
	}
	if p.Op != OpNand2 || p.Kids[1].Op != OpInv || p.Kids[1].Kids[0].Op != OpNand2 {
		t.Errorf("structure wrong: %s", p)
	}
	vars := p.Vars()
	if len(vars) != 3 || vars[0] != "a" || vars[1] != "b" || vars[2] != "c" {
		t.Errorf("Vars = %v", vars)
	}
	// Round trip.
	q, err := ParsePattern(p.String())
	if err != nil || q.String() != p.String() {
		t.Errorf("round trip failed: %v %q", err, q)
	}
}

func TestPatternHeight(t *testing.T) {
	t.Parallel()
	for s, want := range map[string]int{
		"INV(a)":                                1,
		"NAND(a,b)":                             1,
		"NAND(a,INV(NAND(b,c)))":                3,
		"INV(NAND(NAND(a,b),NAND(c,d)))":        3,
		"NAND(INV(a),INV(NAND(INV(b),INV(c))))": 4,
		"NAND(a,INV(NAND(b,INV(NAND(c,d)))))":   5,
	} {
		if got := MustParsePattern(s).Height(); got != want {
			t.Errorf("Height(%s) = %d, want %d", s, got, want)
		}
	}
	if got := Var("a").Height(); got != 0 {
		t.Errorf("Height(a) = %d, want 0", got)
	}
	if got := Default().MaxPatternHeight(); got != 5 {
		t.Errorf("default library MaxPatternHeight = %d, want 5", got)
	}
}

func TestParsePatternErrors(t *testing.T) {
	t.Parallel()
	bad := []string{
		"",
		"NAND(a)",
		"INV(a,b)",
		"NAND(a,b",
		"FOO(a)",
		"NAND(a,b))",
		"NAND(,b)",
	}
	for _, s := range bad {
		if _, err := ParsePattern(s); err == nil {
			t.Errorf("ParsePattern(%q) accepted", s)
		}
	}
}

func TestPatternEval(t *testing.T) {
	t.Parallel()
	// NAND3 pattern = (abc)'.
	p := MustParsePattern("NAND(a,INV(NAND(b,c)))")
	for m := 0; m < 8; m++ {
		assign := map[string]bool{
			"a": m&1 == 1, "b": m&2 == 2, "c": m&4 == 4,
		}
		want := !(assign["a"] && assign["b"] && assign["c"])
		if got := p.Eval(assign); got != want {
			t.Errorf("minterm %d: got %v want %v", m, got, want)
		}
	}
}

func TestDefaultLibraryValidates(t *testing.T) {
	t.Parallel()
	l := Default()
	for _, c := range l.Cells() {
		if err := c.Validate(); err != nil {
			t.Errorf("%s: %v", c.Name, err)
		}
	}
	if l.Cell("INV") == nil || l.Nand2() == nil {
		t.Fatal("mandatory cells missing")
	}
}

func TestDefaultLibraryFunctions(t *testing.T) {
	t.Parallel()
	l := Default()
	// Spot-check cell functions against their intended semantics.
	checks := map[string]func(a, b, c, d bool) bool{
		"INV":   func(a, _, _, _ bool) bool { return !a },
		"NAND2": func(a, b, _, _ bool) bool { return !(a && b) },
		"NAND3": func(a, b, c, _ bool) bool { return !(a && b && c) },
		"NAND4": func(a, b, c, d bool) bool { return !(a && b && c && d) },
		"NOR2":  func(a, b, _, _ bool) bool { return !(a || b) },
		"NOR3":  func(a, b, c, _ bool) bool { return !(a || b || c) },
		"AND2":  func(a, b, _, _ bool) bool { return a && b },
		"OR2":   func(a, b, _, _ bool) bool { return a || b },
		"AOI21": func(a, b, c, _ bool) bool { return !(a && b || c) },
		"AOI22": func(a, b, c, d bool) bool { return !(a && b || c && d) },
		"OAI21": func(a, b, c, _ bool) bool { return !((a || b) && c) },
		"OAI22": func(a, b, c, d bool) bool { return !((a || b) && (c || d)) },
		"XOR2":  func(a, b, _, _ bool) bool { return a != b },
		"XNOR2": func(a, b, _, _ bool) bool { return a == b },
	}
	for name, fn := range checks {
		cell := l.Cell(name)
		if cell == nil {
			t.Errorf("cell %s missing", name)
			continue
		}
		vars := cell.Patterns[0].Vars()
		for m := 0; m < 1<<len(vars); m++ {
			assign := map[string]bool{}
			vals := [4]bool{}
			for i, v := range vars {
				assign[v] = m>>i&1 == 1
				vals[i] = assign[v]
			}
			want := fn(vals[0], vals[1], vals[2], vals[3])
			for pi, p := range cell.Patterns {
				if got := p.Eval(assign); got != want {
					t.Errorf("%s pattern %d minterm %d: got %v want %v", name, pi, m, got, want)
				}
			}
		}
	}
}

func TestFigure1AreaCalibration(t *testing.T) {
	t.Parallel()
	l := Default()
	minArea := l.Cell("NAND3").Area + l.Cell("AOI21").Area + 2*l.Cell("INV").Area
	if math.Abs(minArea-53.248) > 1e-9 {
		t.Errorf("min-area mapping total = %.3f, want 53.248", minArea)
	}
	congArea := 2*l.Cell("OR2").Area + 2*l.Cell("NAND2").Area + l.Cell("INV").Area
	if math.Abs(congArea-65.536) > 1e-9 {
		t.Errorf("congestion mapping total = %.3f, want 65.536", congArea)
	}
}

func TestCellValidateCatchesBadCells(t *testing.T) {
	t.Parallel()
	bad := []*Cell{
		{Name: "", Area: 1, Patterns: []*Pattern{Var("a")}},
		{Name: "X", Area: 0, Patterns: []*Pattern{Var("a")}},
		{Name: "X", Area: 1},
		{Name: "X", Area: 1, Patterns: []*Pattern{Var("a")}, Intrinsic: -1},
		{ // patterns with different variable sets
			Name: "X", Area: 1,
			Patterns: []*Pattern{MustParsePattern("NAND(a,b)"), MustParsePattern("NAND(a,c)")},
		},
		{ // functionally different patterns
			Name: "X", Area: 1,
			Patterns: []*Pattern{MustParsePattern("NAND(a,b)"), MustParsePattern("INV(NAND(a,b))")},
		},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad cell %d validated", i)
		}
	}
}

func TestNewLibraryRejectsDuplicatesAndMissingBase(t *testing.T) {
	t.Parallel()
	inv := &Cell{Name: "INV", Area: 1, Patterns: []*Pattern{MustParsePattern("INV(a)")}}
	nd := &Cell{Name: "NAND2", Area: 1, Patterns: []*Pattern{MustParsePattern("NAND(a,b)")}}
	if _, err := NewLibrary("t", []*Cell{inv, nd, inv}); err == nil {
		t.Error("duplicate cell accepted")
	}
	if _, err := NewLibrary("t", []*Cell{inv}); err == nil {
		t.Error("library without NAND2 accepted")
	}
	if _, err := NewLibrary("t", []*Cell{nd}); err == nil {
		t.Error("library without INV accepted")
	}
	if _, err := NewLibrary("t", []*Cell{inv, nd}); err != nil {
		t.Errorf("minimal library rejected: %v", err)
	}
}

func TestCellWidth(t *testing.T) {
	t.Parallel()
	l := Default()
	inv := l.Cell("INV")
	if math.Abs(inv.Width()*RowHeight-inv.Area) > 1e-9 {
		t.Error("Width × RowHeight must equal Area")
	}
}

func TestNumInputs(t *testing.T) {
	t.Parallel()
	l := Default()
	wants := map[string]int{"INV": 1, "NAND2": 2, "NAND3": 3, "NAND4": 4, "AOI21": 3, "XOR2": 2}
	for name, want := range wants {
		if got := len(l.Cell(name).Patterns[0].Vars()); got != want {
			t.Errorf("%s NumInputs = %d, want %d", name, got, want)
		}
	}
}

func TestPatternStringGrammar(t *testing.T) {
	t.Parallel()
	for _, c := range Default().Cells() {
		for _, p := range c.Patterns {
			s := p.String()
			if !strings.ContainsAny(s, "abcd") {
				t.Errorf("%s pattern %q lost variables", c.Name, s)
			}
			if _, err := ParsePattern(s); err != nil {
				t.Errorf("%s pattern %q does not reparse: %v", c.Name, s, err)
			}
		}
	}
}

func TestWideCellFunctions(t *testing.T) {
	t.Parallel()
	l := Default()
	checks := map[string]func(v []bool) bool{
		"NAND5":  func(v []bool) bool { return !(v[0] && v[1] && v[2] && v[3] && v[4]) },
		"NAND6":  func(v []bool) bool { return !(v[0] && v[1] && v[2] && v[3] && v[4] && v[5]) },
		"AND3":   func(v []bool) bool { return v[0] && v[1] && v[2] },
		"AND4":   func(v []bool) bool { return v[0] && v[1] && v[2] && v[3] },
		"OR3":    func(v []bool) bool { return v[0] || v[1] || v[2] },
		"NOR4":   func(v []bool) bool { return !(v[0] || v[1] || v[2] || v[3]) },
		"AOI211": func(v []bool) bool { return !(v[0] && v[1] || v[2] || v[3]) },
		"OAI211": func(v []bool) bool { return !((v[0] || v[1]) && v[2] && v[3]) },
		"AOI222": func(v []bool) bool { return !(v[0] && v[1] || v[2] && v[3] || v[4] && v[5]) },
		"OAI222": func(v []bool) bool { return !((v[0] || v[1]) && (v[2] || v[3]) && (v[4] || v[5])) },
	}
	for name, fn := range checks {
		cell := l.Cell(name)
		if cell == nil {
			t.Errorf("cell %s missing", name)
			continue
		}
		vars := cell.Patterns[0].Vars()
		for m := 0; m < 1<<len(vars); m++ {
			assign := map[string]bool{}
			vals := make([]bool, len(vars))
			for i, v := range vars {
				assign[v] = m>>i&1 == 1
				vals[i] = assign[v]
			}
			want := fn(vals)
			for pi, p := range cell.Patterns {
				if got := p.Eval(assign); got != want {
					t.Errorf("%s pattern %d minterm %d: got %v want %v", name, pi, m, got, want)
				}
			}
		}
	}
}

func TestWideCellsAreaPerInputFalls(t *testing.T) {
	t.Parallel()
	// The min-area incentive: bigger NANDs must be cheaper per input.
	l := Default()
	chain := []string{"NAND2", "NAND3", "NAND4", "NAND5", "NAND6"}
	prev := 1e18
	for _, name := range chain {
		c := l.Cell(name)
		per := c.Area / float64(len(c.Patterns[0].Vars()))
		if per >= prev {
			t.Errorf("%s area/input %.3f not below predecessor %.3f", name, per, prev)
		}
		prev = per
	}
}

// TestVarsCached: every Default() pattern carries the variable list
// NewLibrary computed, equal to a fresh walk of the pattern, and Vars
// returns it without allocating.
func TestVarsCached(t *testing.T) {
	t.Parallel()
	for _, c := range Default().Cells() {
		for pi, p := range c.Patterns {
			if p.vars == nil {
				t.Fatalf("%s pattern %d: no cached variable list", c.Name, pi)
			}
			if got, want := p.Vars(), p.walkVars(); !slices.Equal(got, want) {
				t.Errorf("%s pattern %d: cached Vars %v, fresh walk %v", c.Name, pi, got, want)
			}
			if allocs := testing.AllocsPerRun(10, func() { _ = p.Vars() }); allocs != 0 {
				t.Errorf("%s pattern %d: Vars allocates %v times", c.Name, pi, allocs)
			}
		}
	}
}
