// Package library implements the standard-cell library used by
// technology mapping: cells with areas and delay parameters, and
// pattern trees over the NAND2/INV base functions that the matcher
// binds onto subject trees.
//
// The default library (see Default) is a synthetic stand-in for the
// proprietary CORELIB8DHS 2.0 the paper uses. Its areas are chosen so
// the paper's Figure 1 arithmetic holds exactly: the min-area mapping
// NAND3 + AOI21 + 2·INV totals 53.248 µm² and the congestion-aware
// mapping 2·OR2 + 2·NAND2 + INV totals 65.536 µm².
package library

import (
	"fmt"
	"strings"
)

// PatternOp is the operator of a pattern-tree node.
type PatternOp uint8

const (
	// OpVar is a pattern leaf binding a subject subtree to a variable.
	OpVar PatternOp = iota
	// OpInv is an inverter pattern node.
	OpInv
	// OpNand2 is a two-input NAND pattern node.
	OpNand2
)

// Pattern is a tree over NAND2/INV whose leaves are named variables.
// A variable may appear more than once (e.g. in XOR patterns); the
// matcher then requires the repeated leaves to bind the same subject
// gate.
type Pattern struct {
	Op   PatternOp
	Var  string     // for OpVar
	Kids []*Pattern // 1 for OpInv, 2 for OpNand2
	// vars is Vars' result, computed once by NewLibrary for every
	// pattern of a library; nil until then.
	vars []string
}

// Var returns a leaf pattern.
func Var(name string) *Pattern { return &Pattern{Op: OpVar, Var: name} }

// Inv returns an inverter pattern.
func Inv(k *Pattern) *Pattern { return &Pattern{Op: OpInv, Kids: []*Pattern{k}} }

// Nand returns a NAND2 pattern.
func Nand(a, b *Pattern) *Pattern { return &Pattern{Op: OpNand2, Kids: []*Pattern{a, b}} }

// Vars returns the distinct variable names of the pattern in first-
// appearance order. For a pattern of a built library the list is the
// one NewLibrary computed, shared by every caller: treat it as
// read-only.
func (p *Pattern) Vars() []string {
	if p.vars != nil {
		return p.vars
	}
	return p.walkVars()
}

// walkVars computes Vars by walking the pattern tree.
func (p *Pattern) walkVars() []string {
	var out []string
	seen := map[string]bool{}
	var walk func(*Pattern)
	walk = func(q *Pattern) {
		switch q.Op {
		case OpVar:
			if !seen[q.Var] {
				seen[q.Var] = true
				out = append(out, q.Var)
			}
		default:
			for _, k := range q.Kids {
				walk(k)
			}
		}
	}
	walk(p)
	return out
}

// Height returns the number of internal (NAND2/INV) levels on the
// pattern's deepest root-to-leaf path: 1 for INV(a), 0 for a bare
// variable. A match of the pattern covers gates at most Height-1 tree
// edges below its root and binds leaves at most Height edges below it.
func (p *Pattern) Height() int {
	if p.Op == OpVar {
		return 0
	}
	h := 0
	for _, k := range p.Kids {
		h = max(h, k.Height())
	}
	return h + 1
}

// Eval evaluates the pattern under a variable assignment.
func (p *Pattern) Eval(assign map[string]bool) bool {
	switch p.Op {
	case OpVar:
		return assign[p.Var]
	case OpInv:
		return !p.Kids[0].Eval(assign)
	case OpNand2:
		return !(p.Kids[0].Eval(assign) && p.Kids[1].Eval(assign))
	default:
		panic("library: invalid pattern op")
	}
}

// String renders the pattern in the expression syntax accepted by
// ParsePattern.
func (p *Pattern) String() string {
	switch p.Op {
	case OpVar:
		return p.Var
	case OpInv:
		return "INV(" + p.Kids[0].String() + ")"
	case OpNand2:
		return "NAND(" + p.Kids[0].String() + "," + p.Kids[1].String() + ")"
	default:
		return "?"
	}
}

// ParsePattern parses expressions like "NAND(a,INV(NAND(b,c)))".
// Variable names are lowercase identifiers.
func ParsePattern(s string) (*Pattern, error) {
	p := &patternParser{src: s}
	pat, err := p.parse()
	if err != nil {
		return nil, err
	}
	p.skipSpace()
	if p.pos != len(p.src) {
		return nil, fmt.Errorf("library: trailing input %q", p.src[p.pos:])
	}
	return pat, nil
}

// MustParsePattern is ParsePattern that panics on error; for the
// built-in library tables.
func MustParsePattern(s string) *Pattern {
	p, err := ParsePattern(s)
	if err != nil {
		panic(err)
	}
	return p
}

type patternParser struct {
	src string
	pos int
}

func (p *patternParser) skipSpace() {
	for p.pos < len(p.src) && (p.src[p.pos] == ' ' || p.src[p.pos] == '\t') {
		p.pos++
	}
}

func (p *patternParser) parse() (*Pattern, error) {
	p.skipSpace()
	start := p.pos
	for p.pos < len(p.src) && isIdentChar(p.src[p.pos]) {
		p.pos++
	}
	ident := p.src[start:p.pos]
	if ident == "" {
		return nil, fmt.Errorf("library: expected identifier at %d in %q", start, p.src)
	}
	p.skipSpace()
	switch strings.ToUpper(ident) {
	case "INV", "NAND":
		if p.pos >= len(p.src) || p.src[p.pos] != '(' {
			return nil, fmt.Errorf("library: expected ( after %s", ident)
		}
		p.pos++
		first, err := p.parse()
		if err != nil {
			return nil, err
		}
		kids := []*Pattern{first}
		p.skipSpace()
		for p.pos < len(p.src) && p.src[p.pos] == ',' {
			p.pos++
			k, err := p.parse()
			if err != nil {
				return nil, err
			}
			kids = append(kids, k)
			p.skipSpace()
		}
		if p.pos >= len(p.src) || p.src[p.pos] != ')' {
			return nil, fmt.Errorf("library: expected ) in %q", p.src)
		}
		p.pos++
		if strings.ToUpper(ident) == "INV" {
			if len(kids) != 1 {
				return nil, fmt.Errorf("library: INV takes 1 argument, got %d", len(kids))
			}
			return Inv(kids[0]), nil
		}
		if len(kids) != 2 {
			return nil, fmt.Errorf("library: NAND takes 2 arguments, got %d", len(kids))
		}
		return Nand(kids[0], kids[1]), nil
	default:
		if ident != strings.ToLower(ident) {
			return nil, fmt.Errorf("library: unknown operator %q", ident)
		}
		return Var(ident), nil
	}
}

func isIdentChar(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' || c == '_'
}
