package irparse

import (
	"strings"
	"testing"

	"autotune/internal/ir"
	"autotune/internal/polyhedral"
)

const mmSrc = `
# matrix multiply, IJK order
program mm
array A[64][64] elem 8
array B[64][64] elem 8
array C[64][64] elem 8
for i = 0..64 {
  for j = 0..64 {
    for k = 0..64 {
      C[i][j] = f(C[i][j], A[i][k], B[k][j]) flops 2
    }
  }
}
`

func TestParseMM(t *testing.T) {
	p, err := Parse(mmSrc)
	if err != nil {
		t.Fatal(err)
	}
	if p.Name != "mm" || len(p.Arrays) != 3 || len(p.Root) != 1 {
		t.Fatalf("program = %+v", p)
	}
	loops, stmts := ir.PerfectNest(p.Root[0])
	if len(loops) != 3 || len(stmts) != 1 {
		t.Fatalf("nest = %d loops, %d stmts", len(loops), len(stmts))
	}
	s := stmts[0]
	if s.Flops != 2 || len(s.Writes) != 1 || len(s.Reads) != 3 {
		t.Fatalf("stmt = %+v", s)
	}
	// The parsed nest carries the expected dependence structure.
	deps := polyhedral.Analyze(loops, stmts)
	if !polyhedral.ParallelLoop(deps, 0) || polyhedral.ParallelLoop(deps, 2) {
		t.Fatal("parsed mm has wrong dependence structure")
	}
}

func TestParseAffineExpressions(t *testing.T) {
	src := `
program stencil
array A[32][32] elem 8
array B[32][32] elem 8
for i = 1..31 {
  for j = 1..31 {
    B[i][j] = f(A[i-1][j], A[i+1][j], A[i][2*j-8], A[i][j]) flops 4
  }
}
`
	p, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	_, body := ir.PerfectNest(p.Root[0])
	s := body[0]
	ix := s.Reads[0].Indices[0] // i-1
	if ix.Coeff("i") != 1 || ix.Const != -1 {
		t.Fatalf("A[i-1] parsed as %v", ix)
	}
	ix = s.Reads[2].Indices[1] // 2*j-8
	if ix.Coeff("j") != 2 || ix.Const != -8 {
		t.Fatalf("A[i][2*j-8] parsed as %v", ix)
	}
}

func TestParseStepAndMultiWrite(t *testing.T) {
	src := `
program multi
array A[16] elem 8
array B[16] elem 8
for i = 0..16 step 2 {
  A[i], B[i] = f() flops 1
}
`
	p, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	l := p.Root[0].(*ir.Loop)
	if l.Step != 2 {
		t.Fatalf("step = %d", l.Step)
	}
	_, body := ir.PerfectNest(p.Root[0])
	s := body[0]
	if len(s.Writes) != 2 || len(s.Reads) != 0 {
		t.Fatalf("stmt = %+v", s)
	}
}

func TestParseTriangularBounds(t *testing.T) {
	src := `
program tri
array A[16][16] elem 8
for i = 0..16 {
  for j = 0..i {
    A[i][j] = f(A[i][j]) flops 1
  }
}
`
	p, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	inner := p.Root[0].(*ir.Loop).Body[0].(*ir.Loop)
	if inner.Hi.Coeff("i") != 1 {
		t.Fatalf("triangular bound parsed as %v", inner.Hi)
	}
}

func TestParseRejections(t *testing.T) {
	cases := map[string]string{
		"missing header":    "array A[4] elem 8",
		"empty name":        "program \nfor i = 0..4 {\nA[i] = f() flops 1\n}",
		"bad array":         "program x\narray A elem 8",
		"bad elem":          "program x\narray A[4] elem zero",
		"bad dim":           "program x\narray A[-1] elem 8",
		"bad for":           "program x\narray A[4] elem 8\nfor i 0..4 {\nA[i] = f()\n}",
		"no dots":           "program x\narray A[4] elem 8\nfor i = 0:4 {\nA[i] = f()\n}",
		"unterminated body": "program x\narray A[4] elem 8\nfor i = 0..4 {\nA[i] = f()",
		"no equals":         "program x\narray A[4] elem 8\nfor i = 0..4 {\nA[i] f()\n}",
		"no f()":            "program x\narray A[4] elem 8\nfor i = 0..4 {\nA[i] = A[i]\n}",
		"bad flops":         "program x\narray A[4] elem 8\nfor i = 0..4 {\nA[i] = f() flops many\n}",
		"bad step":          "program x\narray A[4] elem 8\nfor i = 0..4 step 0 {\nA[i] = f()\n}",
		"undeclared array":  "program x\narray A[4] elem 8\nfor i = 0..4 {\nZ[i] = f()\n}",
		"bad index expr":    "program x\narray A[4] elem 8\nfor i = 0..4 {\nA[i**2] = f()\n}",
		"stray token":       "program x\nbanana",
	}
	for name, src := range cases {
		if _, err := Parse(src); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestParseRoundTripThroughPrinter(t *testing.T) {
	p, err := Parse(mmSrc)
	if err != nil {
		t.Fatal(err)
	}
	listing := p.String()
	for _, want := range []string{"double A[64][64];", "for (k = 0; k < 64; k++)", "C[i][j]"} {
		if !strings.Contains(listing, want) {
			t.Errorf("listing missing %q", want)
		}
	}
}

func TestParseBracesOnOwnLines(t *testing.T) {
	src := "program x\narray A[8] elem 8\nfor i = 0..8\n{\nA[i] = f() flops 1\n}"
	// Header must end with '{' on the same logical line; this style is
	// rejected cleanly rather than crashing.
	if _, err := Parse(src); err == nil {
		t.Skip("brace style accepted (fine)")
	}
}

func TestParseInlineClosingBrace(t *testing.T) {
	src := "program x\narray A[8] elem 8\nfor i = 0..8 {\nA[i] = f() flops 1 }"
	p, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if _, body := ir.PerfectNest(p.Root[0]); len(body) != 1 {
		t.Fatal("inline closing brace mishandled")
	}
}
