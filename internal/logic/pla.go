package logic

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// PLA is a multi-output programmable-logic-array description in the
// Berkeley espresso format: a shared input plane and, per product
// term, an output plane telling which outputs include that term.
// It is the interchange form of the IWLS93-class benchmarks this
// repository regenerates synthetically.
type PLA struct {
	NumInputs  int
	NumOutputs int
	// InputNames and OutputNames are optional (.ilb/.ob); when absent
	// they default to in<i>/out<i> on write.
	InputNames  []string
	OutputNames []string
	// Terms is the input plane, one cube per product term.
	Terms []Cube
	// Outputs[t][o] is true when product term t drives output o.
	Outputs [][]bool
}

// NewPLA returns an empty PLA with ni inputs and no outputs yet.
func NewPLA(ni, no int) *PLA {
	return &PLA{NumInputs: ni, NumOutputs: no}
}

// AddTerm appends a product term with its output membership row.
func (p *PLA) AddTerm(in Cube, outs []bool) error {
	if in.Inputs() != p.NumInputs {
		return fmt.Errorf("logic: term width %d, PLA has %d inputs", in.Inputs(), p.NumInputs)
	}
	if len(outs) != p.NumOutputs {
		return fmt.Errorf("logic: output row width %d, PLA has %d outputs", len(outs), p.NumOutputs)
	}
	p.Terms = append(p.Terms, in)
	row := make([]bool, len(outs))
	copy(row, outs)
	p.Outputs = append(p.Outputs, row)
	return nil
}

// OutputCover extracts the single-output ON-set cover of output o.
func (p *PLA) OutputCover(o int) *Cover {
	cov := NewCover(p.NumInputs)
	for t, cb := range p.Terms {
		if p.Outputs[t][o] {
			cov.Cubes = append(cov.Cubes, cb.Clone())
		}
	}
	return cov
}

// Eval evaluates every output under a full input assignment.
func (p *PLA) Eval(assign []bool) []bool {
	out := make([]bool, p.NumOutputs)
	for t, cb := range p.Terms {
		if !cb.EvalAssignment(assign) {
			continue
		}
		for o, b := range p.Outputs[t] {
			if b {
				out[o] = true
			}
		}
	}
	return out
}

// inputName returns the name of input i, defaulting to in<i>.
func (p *PLA) inputName(i int) string {
	if i < len(p.InputNames) && p.InputNames[i] != "" {
		return p.InputNames[i]
	}
	return "in" + strconv.Itoa(i)
}

// outputName returns the name of output o, defaulting to out<o>.
func (p *PLA) outputName(o int) string {
	if o < len(p.OutputNames) && p.OutputNames[o] != "" {
		return p.OutputNames[o]
	}
	return "out" + strconv.Itoa(o)
}

// Write emits the PLA in espresso format.
func (p *PLA) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, ".i %d\n.o %d\n", p.NumInputs, p.NumOutputs)
	names := make([]string, p.NumInputs)
	for i := range names {
		names[i] = p.inputName(i)
	}
	fmt.Fprintf(bw, ".ilb %s\n", strings.Join(names, " "))
	names = make([]string, p.NumOutputs)
	for o := range names {
		names[o] = p.outputName(o)
	}
	fmt.Fprintf(bw, ".ob %s\n", strings.Join(names, " "))
	fmt.Fprintf(bw, ".p %d\n", len(p.Terms))
	for t, cb := range p.Terms {
		var out strings.Builder
		for o := 0; o < p.NumOutputs; o++ {
			if p.Outputs[t][o] {
				out.WriteByte('1')
			} else {
				out.WriteByte('0')
			}
		}
		fmt.Fprintf(bw, "%s %s\n", cb.String(), out.String())
	}
	fmt.Fprintln(bw, ".e")
	return bw.Flush()
}

// maxPlaneWidth bounds the .i/.o values ReadPLA accepts. Real
// benchmark PLAs are orders of magnitude below it; the cap keeps a
// malicious or corrupt header from driving per-term allocations (one
// output row per product line) to absurd sizes.
const maxPlaneWidth = 1 << 20

// ReadPLA parses an espresso-format PLA. It understands the directives
// .i .o .ilb .ob .p .e and ignores comments (#) and the type
// directives espresso emits. Output-plane characters accepted: 1
// (member), 0/~/- (not a member / don't care treated as 0).
// Plane widths are capped at maxPlaneWidth.
func ReadPLA(r io.Reader) (*PLA, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	p := &PLA{NumInputs: -1, NumOutputs: -1}
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if i := strings.IndexByte(text, '#'); i >= 0 {
			text = strings.TrimSpace(text[:i])
		}
		if text == "" {
			continue
		}
		if strings.HasPrefix(text, ".") {
			fields := strings.Fields(text)
			switch fields[0] {
			case ".i":
				if len(fields) != 2 {
					return nil, fmt.Errorf("logic: line %d: malformed .i", line)
				}
				n, err := strconv.Atoi(fields[1])
				if err != nil || n < 0 || n > maxPlaneWidth {
					return nil, fmt.Errorf("logic: line %d: bad .i value %q", line, fields[1])
				}
				p.NumInputs = n
			case ".o":
				if len(fields) != 2 {
					return nil, fmt.Errorf("logic: line %d: malformed .o", line)
				}
				n, err := strconv.Atoi(fields[1])
				if err != nil || n < 0 || n > maxPlaneWidth {
					return nil, fmt.Errorf("logic: line %d: bad .o value %q", line, fields[1])
				}
				p.NumOutputs = n
			case ".ilb":
				p.InputNames = append([]string(nil), fields[1:]...)
			case ".ob":
				p.OutputNames = append([]string(nil), fields[1:]...)
			case ".p", ".type", ".phase", ".pair", ".symbolic":
				// .p is advisory; others are espresso extensions we skip.
			case ".e", ".end":
				return finishPLA(p)
			default:
				return nil, fmt.Errorf("logic: line %d: unsupported directive %s", line, fields[0])
			}
			continue
		}
		if p.NumInputs < 0 || p.NumOutputs < 0 {
			return nil, fmt.Errorf("logic: line %d: product term before .i/.o", line)
		}
		fields := strings.Fields(text)
		var inPart, outPart string
		switch len(fields) {
		case 2:
			inPart, outPart = fields[0], fields[1]
		case 1:
			if len(fields[0]) != p.NumInputs+p.NumOutputs {
				return nil, fmt.Errorf("logic: line %d: term %q has wrong width", line, fields[0])
			}
			inPart, outPart = fields[0][:p.NumInputs], fields[0][p.NumInputs:]
		default:
			return nil, fmt.Errorf("logic: line %d: malformed product term", line)
		}
		if len(inPart) != p.NumInputs || len(outPart) != p.NumOutputs {
			return nil, fmt.Errorf("logic: line %d: term planes have width %d/%d, want %d/%d",
				line, len(inPart), len(outPart), p.NumInputs, p.NumOutputs)
		}
		cb, err := ParseCube(inPart)
		if err != nil {
			return nil, fmt.Errorf("logic: line %d: %v", line, err)
		}
		row := make([]bool, p.NumOutputs)
		for o, ch := range outPart {
			switch ch {
			case '1', '4':
				row[o] = true
			case '0', '~', '-', '2', '3':
				// not a member of this output's ON-set
			default:
				return nil, fmt.Errorf("logic: line %d: invalid output character %q", line, ch)
			}
		}
		p.Terms = append(p.Terms, cb)
		p.Outputs = append(p.Outputs, row)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return finishPLA(p)
}

func finishPLA(p *PLA) (*PLA, error) {
	if p.NumInputs < 0 || p.NumOutputs < 0 {
		return nil, fmt.Errorf("logic: PLA missing .i/.o directives")
	}
	return p, nil
}

// Stats summarizes a PLA for reporting.
type Stats struct {
	Inputs, Outputs, Terms, Literals int
}

// Stats returns summary statistics of the PLA.
func (p *PLA) Stats() Stats {
	s := Stats{Inputs: p.NumInputs, Outputs: p.NumOutputs, Terms: len(p.Terms)}
	for _, cb := range p.Terms {
		s.Literals += cb.NumLiterals()
	}
	return s
}
