// Package codegen lowers MiniIR programs to compilable C/OpenMP source
// code — the concrete output format of the paper's multi-versioning
// backend (§IV: "Insieme supports exchangeable backends generating C
// ... code"). Besides single-program emission it can render a complete
// multi-versioned translation unit: one function per code version, the
// version table with trade-off metadata as static data, and a dispatch
// function mirroring the runtime system's table lookup.
//
// The emitted code is self-contained C99 + OpenMP. It is not compiled
// inside this repository (the module is pure Go), but the generator is
// exercised by tests that check structural properties: balanced
// braces, declared iterators, loop headers matching the IR, pragma
// placement and table contents.
package codegen

import (
	"fmt"
	"strings"

	"autotune/internal/ir"
	"autotune/internal/multiversion"
)

// emitProgram renders one MiniIR program as a C function named
// funcName taking the program's arrays, of doubles, as parameters; a
// parallel loop carries its OpenMP pragma.
func emitProgram(p *ir.Program, funcName string) (string, error) {
	if err := p.Validate(); err != nil {
		return "", fmt.Errorf("codegen: %w", err)
	}
	var b strings.Builder
	emitSignature(&b, p, funcName)
	b.WriteString(" {\n")
	// Declare all iterators up front (C89-friendly, simplifies
	// emission of collapsed loops).
	iters := collectIterators(p.Root)
	if len(iters) > 0 {
		fmt.Fprintf(&b, "  long %s;\n", strings.Join(iters, ", "))
	}
	if err := emitNodes(&b, p, p.Root, 1); err != nil {
		return "", err
	}
	b.WriteString("}\n")
	return b.String(), nil
}

func emitSignature(b *strings.Builder, p *ir.Program, funcName string) {
	fmt.Fprintf(b, "void %s(", funcName)
	for i, a := range p.Arrays {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(b, "double (* %s)", a.Name)
		for d := 1; d < len(a.Dims); d++ {
			fmt.Fprintf(b, "[%d]", a.Dims[d])
		}
	}
	b.WriteString(")")
}

func collectIterators(ns []ir.Node) []string {
	var out []string
	seen := map[string]bool{}
	ir.Walk(ns, func(n ir.Node) bool {
		if l, ok := n.(*ir.Loop); ok && !seen[l.Var] {
			seen[l.Var] = true
			out = append(out, l.Var)
		}
		return true
	})
	return out
}

func emitNodes(b *strings.Builder, p *ir.Program, ns []ir.Node, depth int) error {
	ind := strings.Repeat("  ", depth)
	for _, n := range ns {
		switch x := n.(type) {
		case *ir.Loop:
			if x.Parallel {
				pragma := "#pragma omp parallel for"
				if x.Collapse > 1 {
					pragma += fmt.Sprintf(" collapse(%d)", x.Collapse)
				}
				pragma += " schedule(static)"
				fmt.Fprintf(b, "%s%s\n", ind, pragma)
			}
			cond, err := loopCondition(x)
			if err != nil {
				return err
			}
			step := fmt.Sprintf("%s += %d", x.Var, x.Step)
			if x.Step == 1 {
				step = x.Var + "++"
			}
			fmt.Fprintf(b, "%sfor (%s = %s; %s; %s) {\n",
				ind, x.Var, cExpr(x.Lo), cond, step)
			if err := emitNodes(b, p, x.Body, depth+1); err != nil {
				return err
			}
			fmt.Fprintf(b, "%s}\n", ind)
		case *ir.Stmt:
			if err := emitStmt(b, p, x, ind); err != nil {
				return err
			}
		default:
			return fmt.Errorf("codegen: unknown node %T", n)
		}
	}
	return nil
}

// loopCondition renders `var < min(Hi, Caps...)` as chained
// comparisons (ANDed), avoiding a min() helper.
func loopCondition(l *ir.Loop) (string, error) {
	parts := []string{fmt.Sprintf("%s < %s", l.Var, cExpr(l.Hi))}
	for _, c := range l.Caps {
		parts = append(parts, fmt.Sprintf("%s < %s", l.Var, cExpr(c)))
	}
	return strings.Join(parts, " && "), nil
}

// cExpr renders an affine expression as C.
func cExpr(a ir.Affine) string {
	s := a.String()
	if s == "" {
		return "0"
	}
	return s
}

func cAccess(ac ir.Access) string {
	var b strings.Builder
	b.WriteString(ac.Array)
	for _, ix := range ac.Indices {
		fmt.Fprintf(&b, "[%s]", cExpr(ix))
	}
	return b.String()
}

// emitStmt renders the statement as an update of its first write from
// a combination of its reads. MiniIR statements carry access patterns
// and flop counts, not arithmetic, so the generated expression is a
// canonical sum/product form with the right access set: an
// accumulation when the statement reads its own write target, a plain
// assignment otherwise.
func emitStmt(b *strings.Builder, p *ir.Program, s *ir.Stmt, ind string) error {
	if len(s.Writes) == 0 {
		fmt.Fprintf(b, "%s/* %s */\n", ind, s.Label)
		return nil
	}
	target := s.Writes[0]
	var reads []string
	accumulates := false
	for _, r := range s.Reads {
		if r.Array == target.Array && sameIndices(r, target) {
			accumulates = true
			continue
		}
		reads = append(reads, cAccess(r))
	}
	var rhs string
	switch {
	case len(reads) == 0:
		rhs = "0.0"
	case len(reads) <= 2:
		rhs = strings.Join(reads, " * ")
	default:
		rhs = "(" + strings.Join(reads, " + ") + ")"
		rhs += fmt.Sprintf(" * (1.0 / %d)", len(reads))
	}
	op := "="
	if accumulates {
		op = "+="
	}
	fmt.Fprintf(b, "%s%s %s %s; /* %s */\n", ind, cAccess(target), op, rhs, s.Label)
	return nil
}

func sameIndices(a, b ir.Access) bool {
	if len(a.Indices) != len(b.Indices) {
		return false
	}
	for i := range a.Indices {
		if !a.Indices[i].Equal(b.Indices[i]) {
			return false
		}
	}
	return true
}

// EmitUnit renders a complete multi-versioned C translation unit for a
// tuned region: one function per version (the caller supplies each
// version's transformed program), the static version table with the
// objective metadata, and a dispatcher that selects by version index —
// the compiled analogue of internal/rts. The functions are named
// <base>_v<i>, <base>_dispatch and so on; base defaults to "kernel".
func EmitUnit(unit *multiversion.Unit, programs []*ir.Program, base string) (string, error) {
	if err := unit.Validate(); err != nil {
		return "", err
	}
	if len(programs) != len(unit.Versions) {
		return "", fmt.Errorf("codegen: %d programs for %d versions", len(programs), len(unit.Versions))
	}
	var b strings.Builder
	fmt.Fprintf(&b, "/* multi-versioned unit for region %q — generated by autotune */\n", unit.Region)
	b.WriteString("#include <stddef.h>\n\n")

	if base == "" {
		base = "kernel"
	}
	sigParams := ""
	for i := range programs {
		code, err := emitProgram(programs[i], fmt.Sprintf("%s_v%d", base, i))
		if err != nil {
			return "", fmt.Errorf("codegen: version %d: %w", i, err)
		}
		meta := unit.Versions[i].Meta
		fmt.Fprintf(&b, "/* version %d: tiles=%v threads=%d objectives=%v */\n",
			i, meta.Tiles, meta.Threads, meta.Objectives)
		b.WriteString(code)
		b.WriteString("\n")
		if i == 0 {
			// Capture the parameter list for the dispatcher from the
			// first version (all versions share the region signature).
			// Parameters may contain nested parentheses (array
			// pointers), so scan with depth tracking.
			open := strings.Index(code, "(")
			if open >= 0 {
				depth := 1
				for j := open + 1; j < len(code); j++ {
					switch code[j] {
					case '(':
						depth++
					case ')':
						depth--
						if depth == 0 {
							sigParams = code[open+1 : j]
							j = len(code)
						}
					}
				}
			}
		}
	}

	// The version table: objective metadata as static data.
	m := len(unit.ObjectiveNames)
	fmt.Fprintf(&b, "static const double %s_objectives[%d][%d] = {\n", base, len(unit.Versions), m)
	for _, v := range unit.Versions {
		vals := make([]string, m)
		for c, o := range v.Meta.Objectives {
			vals[c] = fmt.Sprintf("%g", o)
		}
		fmt.Fprintf(&b, "  {%s},\n", strings.Join(vals, ", "))
	}
	b.WriteString("};\n")
	fmt.Fprintf(&b, "static const int %s_threads[%d] = {", base, len(unit.Versions))
	for i, v := range unit.Versions {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%d", v.Meta.Threads)
	}
	b.WriteString("};\n\n")

	// Argument names for forwarding.
	argNames := paramNames(sigParams)
	fmt.Fprintf(&b, "void %s_dispatch(int version, %s) {\n", base, sigParams)
	fmt.Fprintf(&b, "  switch (version) {\n")
	for i := range unit.Versions {
		fmt.Fprintf(&b, "  case %d: %s_v%d(%s); break;\n", i, base, i, strings.Join(argNames, ", "))
	}
	fmt.Fprintf(&b, "  default: %s_v0(%s); break;\n", base, strings.Join(argNames, ", "))
	b.WriteString("  }\n}\n")
	return b.String(), nil
}

// paramNames extracts the identifier of each parameter from a C
// parameter list like "double (* A)[64], double (* B)[64]".
func paramNames(params string) []string {
	var names []string
	for _, p := range strings.Split(params, ",") {
		p = strings.TrimSpace(p)
		if p == "" {
			continue
		}
		// The name is the identifier right before the first ')' or,
		// without parentheses, the last identifier.
		if i := strings.Index(p, ")"); i >= 0 {
			inner := p[:i]
			if j := strings.LastIndexAny(inner, "* ("); j >= 0 {
				names = append(names, strings.TrimSpace(inner[j+1:]))
				continue
			}
		}
		fields := strings.Fields(p)
		if len(fields) > 0 {
			names = append(names, strings.TrimLeft(fields[len(fields)-1], "*"))
		}
	}
	return names
}
