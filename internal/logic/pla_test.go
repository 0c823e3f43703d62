package logic

import (
	"bytes"
	"strings"
	"testing"
)

const samplePLA = `# tiny two-output example
.i 3
.o 2
.ilb a b c
.ob f g
.p 3
1-0 10
-11 11
0-- 01
.e
`

func TestReadPLA(t *testing.T) {
	t.Parallel()
	p, err := ReadPLA(strings.NewReader(samplePLA))
	if err != nil {
		t.Fatal(err)
	}
	if p.NumInputs != 3 || p.NumOutputs != 2 || len(p.Terms) != 3 {
		t.Fatalf("parsed %d/%d/%d", p.NumInputs, p.NumOutputs, len(p.Terms))
	}
	if p.InputNames[0] != "a" || p.OutputNames[1] != "g" {
		t.Error("names not parsed")
	}
	if !p.Outputs[1][0] || !p.Outputs[1][1] {
		t.Error("output membership of term 1 wrong")
	}
	if p.Outputs[0][1] {
		t.Error("term 0 must not drive output g")
	}
}

func TestReadPLAJoinedPlanes(t *testing.T) {
	t.Parallel()
	// Some writers emit input and output planes without a separator.
	src := ".i 2\n.o 1\n111\n.e\n"
	p, err := ReadPLA(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Terms) != 1 || p.Terms[0].String() != "11" || !p.Outputs[0][0] {
		t.Error("joined-plane term parsed wrong")
	}
}

func TestReadPLAErrors(t *testing.T) {
	t.Parallel()
	bad := []string{
		"1-0 1\n",              // term before .i/.o
		".i 2\n.o 1\n1-0 1\n",  // wrong input width
		".i 3\n.o 1\n1-0 11\n", // wrong output width
		".i x\n",               // bad .i
		".i 2\n.o 1\n.q\n",     // unknown directive
		".i 2\n.o 1\n1x 1\n",   // bad cube char
		".i 2\n.o 1\n10 x\n",   // bad output char
	}
	for _, src := range bad {
		if _, err := ReadPLA(strings.NewReader(src)); err == nil {
			t.Errorf("ReadPLA accepted %q", src)
		}
	}
}

func TestPLAWriteReadRoundTrip(t *testing.T) {
	t.Parallel()
	p, err := ReadPLA(strings.NewReader(samplePLA))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := p.Write(&buf); err != nil {
		t.Fatal(err)
	}
	q, err := ReadPLA(&buf)
	if err != nil {
		t.Fatalf("re-read failed: %v\n%s", err, buf.String())
	}
	if q.NumInputs != p.NumInputs || q.NumOutputs != p.NumOutputs || len(q.Terms) != len(p.Terms) {
		t.Fatal("round trip changed shape")
	}
	// Behavioural equality over all assignments.
	assign := make([]bool, p.NumInputs)
	for m := 0; m < 1<<p.NumInputs; m++ {
		for i := range assign {
			assign[i] = m>>i&1 == 1
		}
		a, b := p.Eval(assign), q.Eval(assign)
		for o := range a {
			if a[o] != b[o] {
				t.Fatalf("round trip changed output %d at minterm %d", o, m)
			}
		}
	}
}

func TestOutputCover(t *testing.T) {
	t.Parallel()
	p, _ := ReadPLA(strings.NewReader(samplePLA))
	for o := 0; o < p.NumOutputs; o++ {
		cov := p.OutputCover(o)
		assign := make([]bool, p.NumInputs)
		for m := 0; m < 1<<p.NumInputs; m++ {
			for i := range assign {
				assign[i] = m>>i&1 == 1
			}
			if cov.Eval(assign) != p.Eval(assign)[o] {
				t.Fatalf("output %d cover differs from the PLA at %d", o, m)
			}
		}
	}
	if n := p.OutputCover(0).Len(); n != 2 {
		t.Errorf("output 0 cover has %d cubes, want 2", n)
	}
}

func TestAddTermValidation(t *testing.T) {
	t.Parallel()
	p := NewPLA(3, 2)
	if err := p.AddTerm(MustParseCube("1-"), []bool{true, false}); err == nil {
		t.Error("wrong input width accepted")
	}
	if err := p.AddTerm(MustParseCube("1-0"), []bool{true}); err == nil {
		t.Error("wrong output width accepted")
	}
	if err := p.AddTerm(MustParseCube("1-0"), []bool{true, false}); err != nil {
		t.Errorf("valid term rejected: %v", err)
	}
}

func TestPLAStats(t *testing.T) {
	t.Parallel()
	p, _ := ReadPLA(strings.NewReader(samplePLA))
	s := p.Stats()
	if s.Inputs != 3 || s.Outputs != 2 || s.Terms != 3 {
		t.Errorf("Stats = %+v", s)
	}
	if s.Literals != 2+2+1 {
		t.Errorf("Literals = %d, want 5", s.Literals)
	}
}

func TestDefaultNames(t *testing.T) {
	t.Parallel()
	p := NewPLA(2, 1)
	_ = p.AddTerm(MustParseCube("11"), []bool{true})
	var buf bytes.Buffer
	if err := p.Write(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "in0 in1") || !strings.Contains(out, "out0") {
		t.Errorf("default names missing:\n%s", out)
	}
}
