package ir

// The map-based Affine exactly as it stood before the sorted term slice
// replaced it, kept as a reference: FuzzAffineMatchesReference holds
// Affine to it over random expressions, and the printer tests of
// print_reference_test.go render through it. Its String is the fmt
// printer the builder-based one replaced.

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"
)

// RefAffine is Const + Σ Coeffs[v]·v; a missing name has coefficient
// zero.
type RefAffine struct {
	Const  int64
	Coeffs map[string]int64
}

// RefOf returns a's terms as the reference holds them.
func RefOf(a Affine) RefAffine {
	out := RefAffine{Const: a.Const, Coeffs: map[string]int64{}}
	for _, t := range a.terms {
		out.Coeffs[t.v] = t.c
	}
	return out
}

func refCon(c int64) RefAffine { return RefAffine{Const: c} }

func refVar(name string) RefAffine {
	return RefAffine{Coeffs: map[string]int64{name: 1}}
}

func refTerm(name string, coeff int64) RefAffine {
	return RefAffine{Coeffs: map[string]int64{name: coeff}}
}

func (a RefAffine) add(b RefAffine) RefAffine {
	out := RefAffine{Const: a.Const + b.Const, Coeffs: map[string]int64{}}
	for v, c := range a.Coeffs {
		out.Coeffs[v] += c
	}
	for v, c := range b.Coeffs {
		out.Coeffs[v] += c
	}
	out.normalize()
	return out
}

func (a RefAffine) addConst(c int64) RefAffine { return a.add(refCon(c)) }

func (a RefAffine) scale(k int64) RefAffine {
	out := RefAffine{Const: a.Const * k, Coeffs: map[string]int64{}}
	for v, c := range a.Coeffs {
		out.Coeffs[v] = c * k
	}
	out.normalize()
	return out
}

func (a RefAffine) sub(b RefAffine) RefAffine { return a.add(b.scale(-1)) }

func (a RefAffine) coeff(v string) int64 { return a.Coeffs[v] }

func (a RefAffine) isConst() bool {
	for _, c := range a.Coeffs {
		if c != 0 {
			return false
		}
	}
	return true
}

// Vars returns the iterator names with non-zero coefficients, sorted.
func (a RefAffine) Vars() []string {
	var vs []string
	for v, c := range a.Coeffs {
		if c != 0 {
			vs = append(vs, v)
		}
	}
	sort.Strings(vs)
	return vs
}

func (a RefAffine) eval(env map[string]int64) int64 {
	v := a.Const
	for name, c := range a.Coeffs {
		v += c * env[name]
	}
	return v
}

func (a RefAffine) equal(b RefAffine) bool {
	d := a.sub(b)
	return d.Const == 0 && d.isConst()
}

func (a *RefAffine) normalize() {
	for v, c := range a.Coeffs {
		if c == 0 {
			delete(a.Coeffs, v)
		}
	}
}

// String is the fmt printer: the terms in iterator-name order, then
// the constant when it is non-zero or stands alone, joined by " + ",
// with "+ -" folded to "- ".
func (a RefAffine) String() string {
	var parts []string
	for _, v := range a.Vars() {
		switch c := a.Coeffs[v]; c {
		case 1:
			parts = append(parts, v)
		case -1:
			parts = append(parts, "-"+v)
		default:
			parts = append(parts, fmt.Sprintf("%d*%s", c, v))
		}
	}
	if a.Const != 0 || len(parts) == 0 {
		parts = append(parts, fmt.Sprintf("%d", a.Const))
	}
	s := strings.Join(parts, " + ")
	return strings.ReplaceAll(s, "+ -", "- ")
}

// FuzzAffineMatchesReference runs ops as a small stack program that
// builds expressions alike in Affine and in the map-based reference —
// Con, Var, Term with zero coefficients included, Add, AddConst, and
// Add of a negated copy — over a few names and over coefficients that
// cancel, also by wrapping at the int64 limits. Every expression built
// prints, evaluates and reports its coefficients as the reference's
// does, holds its terms sorted with no zero coefficient, and equals
// each other one exactly when the reference says so.
func FuzzAffineMatchesReference(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 7, 3})                          // i + j
	f.Add([]byte{110, 146, 3, 110, 5, 3})           // 2*i - 2*i cancels; so does 2*i + -(2*i)
	f.Add([]byte{13, 19, 3, 212, 3, 5, 30, 3})      // several names, a negation, a constant
	f.Add([]byte{218, 218, 3, 46, 46})              // int64 limits wrapping to zero
	f.Add([]byte{31, 25, 19, 1, 3, 3, 3, 2, 3, 14}) // the names out of order, a zero term
	names := []string{"i", "j", "k", "i_t", "ii", "a"}
	vals := []int64{0, 1, -1, 2, -2, 7, math.MinInt64, math.MaxInt64}
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 64 {
			ops = ops[:64]
		}
		type pair struct {
			got  Affine
			want RefAffine
		}
		var stack []pair
		pop := func() pair {
			p := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			return p
		}
		for _, b := range ops {
			arg := int(b / 6)
			name, val := names[arg%len(names)], vals[arg%len(vals)]
			switch b % 6 {
			case 0:
				stack = append(stack, pair{Con(val), refCon(val)})
			case 1:
				stack = append(stack, pair{Var(name), refVar(name)})
			case 2:
				c := vals[(arg/len(names))%len(vals)]
				stack = append(stack, pair{Term(name, c), refTerm(name, c)})
			case 3:
				if len(stack) >= 2 {
					y, x := pop(), pop()
					stack = append(stack, pair{x.got.Add(y.got), x.want.add(y.want)})
				}
			case 4:
				if len(stack) >= 1 {
					x := pop()
					stack = append(stack, pair{x.got.AddConst(val), x.want.addConst(val)})
				}
			case 5:
				if len(stack) >= 1 {
					// -x, built from the constructors as a caller would.
					x := stack[len(stack)-1]
					neg := Con(-x.got.Const)
					for _, tm := range x.got.terms {
						neg = neg.Add(Term(tm.v, -tm.c))
					}
					stack = append(stack, pair{neg, x.want.scale(-1)})
				}
			}
		}
		envs := []map[string]int64{nil, {"i": 3, "j": -4, "k": 5, "i_t": 64, "ii": 1 << 40, "a": -9}}
		for n, p := range stack {
			if got, want := p.got.String(), p.want.String(); got != want {
				t.Fatalf("expression %d: String %q, reference %q", n, got, want)
			}
			for _, env := range envs {
				if got, want := p.got.Eval(env), p.want.eval(env); got != want {
					t.Fatalf("%v: Eval(%v) = %d, reference %d", p.got, env, got, want)
				}
			}
			for _, v := range append(names, "absent") {
				if got, want := p.got.Coeff(v), p.want.coeff(v); got != want {
					t.Fatalf("%v: Coeff(%s) = %d, reference %d", p.got, v, got, want)
				}
			}
			if got, want := p.got.IsConst(), p.want.isConst(); got != want {
				t.Fatalf("%v: IsConst %v, reference %v", p.got, got, want)
			}
			for i, tm := range p.got.terms {
				if tm.c == 0 || i > 0 && p.got.terms[i-1].v >= tm.v {
					t.Fatalf("%v: terms %v not sorted by name without zeros", p.got, p.got.terms)
				}
			}
			for m, q := range stack {
				if got, want := p.got.Equal(q.got), p.want.equal(q.want); got != want {
					t.Fatalf("expressions %d and %d (%v, %v): Equal %v, reference %v", n, m, p.got, q.got, got, want)
				}
			}
		}
	})
}
