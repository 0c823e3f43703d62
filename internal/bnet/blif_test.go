package bnet

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"casyn/internal/logic"
)

const sampleBLIF = `# a small combinational model
.model demo
.inputs a b c
.outputs f g
.names a b t1
11 1
.names t1 c f
1- 1
-1 1
.names a c g
10 1
.end
`

func TestReadBLIF(t *testing.T) {
	t.Parallel()
	n, err := ReadBLIF(strings.NewReader(sampleBLIF))
	if err != nil {
		t.Fatal(err)
	}
	if len(n.pis) != 3 || len(n.pos) != 2 {
		t.Fatalf("interface %d/%d", len(n.pis), len(n.pos))
	}
	// f = ab + c, g = a·c'.
	cases := []struct {
		in    []bool
		wantF bool
		wantG bool
	}{
		{[]bool{true, true, false}, true, true},
		{[]bool{false, false, true}, true, false},
		{[]bool{true, false, false}, false, true},
		{[]bool{false, false, false}, false, false},
	}
	for _, cs := range cases {
		out, err := n.EvalOutputs(cs.in)
		if err != nil {
			t.Fatal(err)
		}
		if out[0] != cs.wantF || out[1] != cs.wantG {
			t.Errorf("in=%v: f=%v g=%v, want %v %v", cs.in, out[0], out[1], cs.wantF, cs.wantG)
		}
	}
}

func TestReadBLIFOutOfOrderBlocks(t *testing.T) {
	t.Parallel()
	// t1 is used before its .names block appears.
	src := ".model x\n.inputs a b\n.outputs f\n.names t1 f\n1 1\n.names a b t1\n11 1\n.end\n"
	n, err := ReadBLIF(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	out, err := n.EvalOutputs([]bool{true, true})
	if err != nil {
		t.Fatal(err)
	}
	if !out[0] {
		t.Error("f(1,1) must be 1")
	}
}

func TestReadBLIFLineContinuation(t *testing.T) {
	t.Parallel()
	src := ".model x\n.inputs a \\\nb\n.outputs f\n.names a b f\n11 1\n.end\n"
	n, err := ReadBLIF(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if len(n.pis) != 2 {
		t.Errorf("PIs = %d, want 2 (continuation broken)", len(n.pis))
	}
}

func TestReadBLIFErrors(t *testing.T) {
	t.Parallel()
	bad := []string{
		"",
		".model a\n.model b\n.end\n",
		".inputs a\n.outputs f\n.names a f\n1 0\n.end\n",  // 0-terminated
		".inputs a\n.outputs f\n.latch a f\n.end\n",       // latch
		".inputs a\n.outputs f\n.names x f\n1 1\n.end\n",  // undriven x
		".inputs a\n.outputs f\n.names a f\nxx 1\n.end\n", // bad row
	}
	for _, src := range bad {
		if _, err := ReadBLIF(strings.NewReader(src)); err == nil {
			t.Errorf("ReadBLIF accepted %q", src)
		}
	}
}

func TestBLIFWriteReadRoundTrip(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(91))
	extracted := 0
	for trial := 0; trial < 8; trial++ {
		ni, no := 6, 3
		p := logic.NewPLA(ni, no)
		for k := 0; k < 14; k++ {
			cb := logic.NewCube(ni)
			for i := 0; i < ni; i++ {
				switch rng.Intn(3) {
				case 0:
					cb.SetPos(i)
				case 1:
					cb.SetNeg(i)
				}
			}
			row := make([]bool, no)
			row[rng.Intn(no)] = true
			if err := p.AddTerm(cb, row); err != nil {
				t.Fatal(err)
			}
		}
		orig, err := FromPLA(p)
		if err != nil {
			t.Fatal(err)
		}
		// Optimize so the network has interesting internal structure.
		extracted += FastExtract(orig, FastExtractOptions{MinPairCount: 2}).NewNodes
		var buf bytes.Buffer
		if err := orig.WriteBLIF(&buf, "roundtrip"); err != nil {
			t.Fatal(err)
		}
		back, err := ReadBLIF(&buf)
		if err != nil {
			t.Fatalf("re-read failed: %v", err)
		}
		if err := CheckEquivalence(orig, back, 200, rng); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
	if extracted == 0 {
		t.Error("extraction built no internal nodes in any trial")
	}
}

func TestBLIFConstantNodes(t *testing.T) {
	t.Parallel()
	n := New()
	n.AddPI("a")
	zero := n.AddInternal("zero", nil)
	one := n.AddInternal("one", NewSop(Cube{}))
	n.AddPO("z", zero, false)
	n.AddPO("o", one, false)
	var buf bytes.Buffer
	if err := n.WriteBLIF(&buf, "consts"); err != nil {
		t.Fatal(err)
	}
	back, err := ReadBLIF(&buf)
	if err != nil {
		t.Fatalf("%v\n%s", err, buf.String())
	}
	out, err := back.EvalOutputs([]bool{true})
	if err != nil {
		t.Fatal(err)
	}
	if out[0] != false || out[1] != true {
		t.Errorf("constants = %v, want [false true]", out)
	}
}
