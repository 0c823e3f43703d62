package library

import (
	"crypto/sha256"
	"fmt"
	"math"
	"sort"
)

// Cell is one standard cell: its silicon area, a linear delay model,
// and one or more pattern trees describing its function in NAND2/INV
// base gates. Multiple patterns encode the distinct tree
// decompositions a cell admits (e.g. NAND4 has a balanced and a linear
// form).
type Cell struct {
	// Name is the cell's library name, e.g. "NAND2".
	Name string
	// Area is the cell area in µm².
	Area float64
	// Patterns are the tree decompositions; every pattern of a cell
	// must compute the same function over the same variable set.
	Patterns []*Pattern
	// Intrinsic is the fixed delay component in ns.
	Intrinsic float64
	// Drive is the output drive resistance in kΩ; gate delay is
	// Intrinsic + Drive·Cload with Cload in pF.
	Drive float64
	// InputCap is the capacitance of each input pin in pF.
	InputCap float64
}

// NumInputs returns the number of distinct pattern variables.
func (c *Cell) NumInputs() int {
	if len(c.Patterns) == 0 {
		return 0
	}
	return len(c.Patterns[0].Vars())
}

// Validate checks the cell's internal consistency: positive area,
// at least one pattern, and functional equality of all patterns over
// a common variable set (exhaustive up to 10 inputs).
func (c *Cell) Validate() error {
	if c.Name == "" {
		return fmt.Errorf("library: cell with empty name")
	}
	if c.Area <= 0 {
		return fmt.Errorf("library: cell %s has non-positive area", c.Name)
	}
	if len(c.Patterns) == 0 {
		return fmt.Errorf("library: cell %s has no patterns", c.Name)
	}
	if c.Intrinsic < 0 || c.Drive < 0 || c.InputCap < 0 {
		return fmt.Errorf("library: cell %s has negative delay parameters", c.Name)
	}
	ref := c.Patterns[0]
	refVars := append([]string(nil), ref.Vars()...)
	sort.Strings(refVars)
	if len(refVars) > 10 {
		return fmt.Errorf("library: cell %s has %d inputs; validation supports <= 10", c.Name, len(refVars))
	}
	for pi, p := range c.Patterns[1:] {
		vars := append([]string(nil), p.Vars()...)
		sort.Strings(vars)
		if len(vars) != len(refVars) {
			return fmt.Errorf("library: cell %s pattern %d has %d vars, want %d", c.Name, pi+1, len(vars), len(refVars))
		}
		for i := range vars {
			if vars[i] != refVars[i] {
				return fmt.Errorf("library: cell %s pattern %d variable set differs", c.Name, pi+1)
			}
		}
	}
	assign := map[string]bool{}
	for m := 0; m < 1<<len(refVars); m++ {
		for i, v := range refVars {
			assign[v] = m>>i&1 == 1
		}
		want := ref.Eval(assign)
		for pi, p := range c.Patterns[1:] {
			if p.Eval(assign) != want {
				return fmt.Errorf("library: cell %s pattern %d functionally differs at minterm %d", c.Name, pi+1, m)
			}
		}
	}
	return nil
}

// Library is a named collection of cells.
type Library struct {
	Name  string
	cells []*Cell
	index map[string]*Cell
	// fingerprint hashes the content the library was built from; see
	// Fingerprint.
	fingerprint [sha256.Size]byte
}

// NewLibrary builds a library from cells, validating each.
func NewLibrary(name string, cells []*Cell) (*Library, error) {
	l := &Library{Name: name, index: make(map[string]*Cell, len(cells))}
	for _, c := range cells {
		if err := c.Validate(); err != nil {
			return nil, err
		}
		if _, dup := l.index[c.Name]; dup {
			return nil, fmt.Errorf("library: duplicate cell %s", c.Name)
		}
		l.cells = append(l.cells, c)
		l.index[c.Name] = c
	}
	if _, ok := l.index["INV"]; !ok {
		return nil, fmt.Errorf("library: %s lacks the mandatory INV cell", name)
	}
	if _, ok := l.index["NAND2"]; !ok {
		return nil, fmt.Errorf("library: %s lacks the mandatory NAND2 cell", name)
	}
	h := sha256.New()
	fmt.Fprintf(h, "%q\n", name)
	for _, c := range l.cells {
		fmt.Fprintf(h, "%q %x %x %x %x", c.Name, math.Float64bits(c.Area),
			math.Float64bits(c.Intrinsic), math.Float64bits(c.Drive), math.Float64bits(c.InputCap))
		for _, p := range c.Patterns {
			fmt.Fprintf(h, " %q", p.String())
		}
		fmt.Fprintln(h)
	}
	h.Sum(l.fingerprint[:0])
	return l, nil
}

// Fingerprint identifies the library by content: a hash of its name
// and of every cell's name, area, delay parameters and patterns, taken
// once by NewLibrary. Two libraries built from the same table — two
// Default() calls, say — share a fingerprint, so anything derived from
// one (a mapping prefix's matches) serves the other.
func (l *Library) Fingerprint() [sha256.Size]byte { return l.fingerprint }

// Cells returns the cells in declaration order.
func (l *Library) Cells() []*Cell { return l.cells }

// Cell returns the named cell, or nil.
func (l *Library) Cell(name string) *Cell { return l.index[name] }

// Inv returns the inverter cell (guaranteed present).
func (l *Library) Inv() *Cell { return l.index["INV"] }

// Nand2 returns the two-input NAND cell (guaranteed present).
func (l *Library) Nand2() *Cell { return l.index["NAND2"] }

// Default returns the synthetic CORELIB-style library. Areas are in
// µm² with a row (cell) height of 6.656 µm; see the package comment
// for the Figure 1 calibration. Delay parameters follow a generic
// 0.18 µm flavor: intrinsic delays of tens of picoseconds, drive
// resistances of a few kΩ, input capacitances of a few fF.
func Default() *Library {
	cells := []*Cell{
		{
			Name: "INV", Area: 8.320,
			Patterns:  []*Pattern{MustParsePattern("INV(a)")},
			Intrinsic: 0.022, Drive: 1.80, InputCap: 0.0042,
		},
		{
			Name: "NAND2", Area: 11.648,
			Patterns:  []*Pattern{MustParsePattern("NAND(a,b)")},
			Intrinsic: 0.031, Drive: 2.10, InputCap: 0.0047,
		},
		{
			Name: "NAND3", Area: 16.640,
			Patterns: []*Pattern{
				MustParsePattern("NAND(a,INV(NAND(b,c)))"),
				MustParsePattern("NAND(INV(NAND(a,b)),c)"),
			},
			Intrinsic: 0.046, Drive: 2.60, InputCap: 0.0051,
		},
		{
			Name: "NAND4", Area: 21.632,
			Patterns: []*Pattern{
				MustParsePattern("NAND(INV(NAND(a,b)),INV(NAND(c,d)))"),
				MustParsePattern("NAND(a,INV(NAND(b,INV(NAND(c,d)))))"),
				MustParsePattern("NAND(INV(NAND(a,INV(NAND(b,c)))),d)"),
			},
			Intrinsic: 0.062, Drive: 3.10, InputCap: 0.0055,
		},
		{
			Name: "NOR2", Area: 13.312,
			Patterns:  []*Pattern{MustParsePattern("INV(NAND(INV(a),INV(b)))")},
			Intrinsic: 0.038, Drive: 2.80, InputCap: 0.0047,
		},
		{
			Name: "NOR3", Area: 19.968,
			Patterns: []*Pattern{
				MustParsePattern("INV(NAND(INV(a),INV(NAND(INV(b),INV(c)))))"),
				MustParsePattern("INV(NAND(INV(NAND(INV(a),INV(b))),INV(c)))"),
			},
			Intrinsic: 0.058, Drive: 3.60, InputCap: 0.0051,
		},
		{
			Name: "AND2", Area: 13.312,
			Patterns:  []*Pattern{MustParsePattern("INV(NAND(a,b))")},
			Intrinsic: 0.043, Drive: 2.00, InputCap: 0.0045,
		},
		{
			Name: "OR2", Area: 16.960,
			Patterns:  []*Pattern{MustParsePattern("NAND(INV(a),INV(b))")},
			Intrinsic: 0.047, Drive: 2.20, InputCap: 0.0045,
		},
		{
			Name: "AOI21", Area: 19.968,
			Patterns:  []*Pattern{MustParsePattern("INV(NAND(NAND(a,b),INV(c)))")},
			Intrinsic: 0.052, Drive: 2.90, InputCap: 0.0049,
		},
		{
			Name: "AOI22", Area: 24.960,
			Patterns:  []*Pattern{MustParsePattern("INV(NAND(NAND(a,b),NAND(c,d)))")},
			Intrinsic: 0.064, Drive: 3.30, InputCap: 0.0052,
		},
		{
			Name: "OAI21", Area: 19.968,
			Patterns:  []*Pattern{MustParsePattern("NAND(NAND(INV(a),INV(b)),c)")},
			Intrinsic: 0.050, Drive: 2.90, InputCap: 0.0049,
		},
		{
			Name: "OAI22", Area: 24.960,
			Patterns:  []*Pattern{MustParsePattern("NAND(NAND(INV(a),INV(b)),NAND(INV(c),INV(d)))")},
			Intrinsic: 0.061, Drive: 3.30, InputCap: 0.0052,
		},
		{
			// Wide cells: the area per input keeps falling with size,
			// which is exactly why unconstrained minimum-area covering
			// reaches for them — and why the paper blames high-fanin
			// cells for congestion (their many fanins cannot all be
			// placed adjacent to the cell).
			Name: "NAND5", Area: 24.960,
			Patterns: []*Pattern{
				MustParsePattern("NAND(a,INV(NAND(INV(NAND(b,c)),INV(NAND(d,e)))))"),
				MustParsePattern("NAND(INV(NAND(a,b)),INV(NAND(c,INV(NAND(d,e)))))"),
			},
			Intrinsic: 0.078, Drive: 3.60, InputCap: 0.0058,
		},
		{
			Name: "NAND6", Area: 28.288,
			Patterns: []*Pattern{
				MustParsePattern("NAND(INV(NAND(a,INV(NAND(b,c)))),INV(NAND(d,INV(NAND(e,f)))))"),
				MustParsePattern("NAND(INV(NAND(INV(NAND(a,b)),INV(NAND(c,d)))),INV(NAND(e,f)))"),
			},
			Intrinsic: 0.095, Drive: 4.10, InputCap: 0.0060,
		},
		{
			Name: "AND3", Area: 18.304,
			Patterns:  []*Pattern{MustParsePattern("INV(NAND(a,INV(NAND(b,c))))")},
			Intrinsic: 0.058, Drive: 2.30, InputCap: 0.0048,
		},
		{
			Name: "AND4", Area: 23.296,
			Patterns:  []*Pattern{MustParsePattern("INV(NAND(INV(NAND(a,b)),INV(NAND(c,d))))")},
			Intrinsic: 0.071, Drive: 2.50, InputCap: 0.0050,
		},
		{
			Name: "OR3", Area: 21.632,
			Patterns:  []*Pattern{MustParsePattern("NAND(INV(a),INV(NAND(INV(b),INV(c))))")},
			Intrinsic: 0.064, Drive: 2.60, InputCap: 0.0048,
		},
		{
			Name: "NOR4", Area: 26.624,
			Patterns: []*Pattern{
				MustParsePattern("INV(NAND(INV(NAND(INV(a),INV(b))),INV(NAND(INV(c),INV(d)))))"),
			},
			Intrinsic: 0.082, Drive: 4.40, InputCap: 0.0053,
		},
		{
			Name: "AOI211", Area: 23.296,
			Patterns: []*Pattern{
				MustParsePattern("INV(NAND(NAND(a,b),INV(NAND(INV(c),INV(d)))))"),
			},
			Intrinsic: 0.066, Drive: 3.40, InputCap: 0.0051,
		},
		{
			Name: "OAI211", Area: 23.296,
			Patterns: []*Pattern{
				MustParsePattern("NAND(NAND(INV(a),INV(b)),INV(NAND(c,d)))"),
			},
			Intrinsic: 0.064, Drive: 3.40, InputCap: 0.0051,
		},
		{
			Name: "AOI222", Area: 33.280,
			Patterns: []*Pattern{
				MustParsePattern("INV(NAND(INV(NAND(NAND(a,b),NAND(c,d))),NAND(e,f)))"),
			},
			Intrinsic: 0.092, Drive: 4.00, InputCap: 0.0056,
		},
		{
			Name: "OAI222", Area: 33.280,
			Patterns: []*Pattern{
				MustParsePattern("NAND(INV(NAND(NAND(INV(a),INV(b)),NAND(INV(c),INV(d)))),NAND(INV(e),INV(f)))"),
			},
			Intrinsic: 0.090, Drive: 4.00, InputCap: 0.0056,
		},
		{
			Name: "XOR2", Area: 24.960,
			Patterns:  []*Pattern{MustParsePattern("NAND(NAND(a,INV(b)),NAND(INV(a),b))")},
			Intrinsic: 0.074, Drive: 3.00, InputCap: 0.0090,
		},
		{
			Name: "XNOR2", Area: 24.960,
			Patterns:  []*Pattern{MustParsePattern("NAND(NAND(a,b),NAND(INV(a),INV(b)))")},
			Intrinsic: 0.074, Drive: 3.00, InputCap: 0.0090,
		},
	}
	l, err := NewLibrary("CORELIB-SYN", cells)
	if err != nil {
		panic(err) // built-in table must be valid
	}
	return l
}

// RowHeight is the standard-cell row height of the default library in
// µm; cell widths are Area / RowHeight.
const RowHeight = 6.656

// Width returns the placement width of the cell in µm assuming the
// default row height.
func (c *Cell) Width() float64 { return c.Area / RowHeight }
