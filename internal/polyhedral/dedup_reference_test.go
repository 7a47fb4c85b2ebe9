package polyhedral

// dedup exactly as it stood before it compared dependences field by
// field, kept as a reference: it keyed each dependence by its rendered
// String and, when exact, its fmt-printed distance.
// TestDedupMatchesReference holds dedup to it over every registered
// kernel's dependences.

import (
	"fmt"
	"reflect"
	"testing"

	"autotune/internal/ir"
	"autotune/internal/kernels"
)

func refDedup(deps []Dependence) []Dependence {
	seen := map[string]bool{}
	var out []Dependence
	for _, d := range deps {
		key := d.String()
		if d.Exact {
			key += fmt.Sprint(d.Distance)
		}
		if !seen[key] {
			seen[key] = true
			out = append(out, d)
		}
	}
	return out
}

// TestDedupMatchesReference: for the perfect nest rooted at every loop
// of every registered kernel, at several sizes, dedup keeps what the
// string-keyed reference keeps, in its order — over the nest's own
// dependences, over them followed by themselves reversed, and over
// them with each exact one repeated inexact and with its distance
// shifted, which neither may merge with the original.
func TestDedupMatchesReference(t *testing.T) {
	nests, kept, dropped := 0, 0, 0
	for _, k := range kernels.All() {
		for _, n := range []int64{1, 7, 64, k.BenchN} {
			ir.Walk(k.IR(n).Root, func(node ir.Node) bool {
				loops, stmts := ir.PerfectNest(node)
				if len(loops) == 0 {
					return false
				}
				raw := pairDependences(loops, stmts)
				doubled := append(append([]Dependence(nil), raw...), raw...)
				for i, j := len(raw), len(doubled)-1; i < j; i, j = i+1, j-1 {
					doubled[i], doubled[j] = doubled[j], doubled[i]
				}
				var variants []Dependence
				for _, d := range raw {
					variants = append(variants, d)
					if d.Exact {
						inexact := d
						inexact.Exact, inexact.Distance = false, nil
						shifted := d
						shifted.Distance = append([]int64(nil), d.Distance...)
						shifted.Distance[len(shifted.Distance)-1]++
						variants = append(variants, inexact, shifted, d)
					}
				}
				for _, deps := range [][]Dependence{raw, doubled, variants} {
					want := refDedup(deps)
					got := dedup(append([]Dependence(nil), deps...))
					if !reflect.DeepEqual(got, want) && (len(got) != 0 || len(want) != 0) {
						t.Fatalf("%s n=%d nest at %s: dedup kept\n%v\nreference kept\n%v", k.Name, n, loops[0].Var, got, want)
					}
					kept += len(got)
					dropped += len(deps) - len(got)
				}
				nests++
				return true
			})
		}
	}
	if nests == 0 || kept == 0 || dropped == 0 {
		t.Fatalf("%d nests, %d dependences kept, %d dropped: nothing compared", nests, kept, dropped)
	}
	t.Logf("%d nests: %d dependences kept, %d dropped", nests, kept, dropped)
}
