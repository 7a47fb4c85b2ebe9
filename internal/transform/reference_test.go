package transform

// The deep-copy transformations exactly as they stood before a
// sequence of them copied only the spine it rewrites, kept as a
// reference: FuzzSequenceMatchesReference holds Apply — the tile,
// parallelize, unroll sequence, one version at a time and a batch at
// once — and Tile to their bytes over every registered kernel's IR,
// and checks that emitting a version changes neither the input nor any
// version emitted before it.

import (
	"fmt"
	"math/rand"
	"testing"

	"autotune/internal/ir"
	"autotune/internal/kernels"
)

// refSpec is one version's transformation list: the ops run left to
// right, each with its own parameter.
type refSpec []refOp

type refOp struct {
	kind     byte // 't'ile, 'p'arallelize, 'u'nroll
	tiles    []int64
	collapse int
	unroll   int64
}

func (op refOp) String() string {
	switch op.kind {
	case 't':
		return fmt.Sprintf("tile%v", op.tiles)
	case 'p':
		return fmt.Sprintf("parallelize(%d)", op.collapse)
	default:
		return fmt.Sprintf("unroll(%d)", op.unroll)
	}
}

// applyArgs is one version's arguments to Apply.
type applyArgs struct {
	tiles    []int64
	collapse int
	unroll   int64
}

// spec is the sequence Apply runs for a: tile, parallelize and, when
// unroll is not 0, the unroll pragma.
func (a applyArgs) spec() refSpec {
	s := refSpec{{kind: 't', tiles: a.tiles}, {kind: 'p', collapse: a.collapse}}
	if a.unroll != 0 {
		s = append(s, refOp{kind: 'u', unroll: a.unroll})
	}
	return s
}

// refSequence clones the whole program and rewrites the clone in place,
// step by step; it stops at the first error and returns no program.
func refSequence(p *ir.Program, s refSpec) (*ir.Program, error) {
	cur := p.Clone()
	for i, op := range s {
		var err error
		switch op.kind {
		case 't':
			err = refTile(cur, op.tiles)
		case 'p':
			err = refParallelize(cur, op.collapse)
		default:
			err = refAnnotateUnroll(cur, op.unroll)
		}
		if err != nil {
			return nil, fmt.Errorf("transform: step %d: %w", i, err)
		}
	}
	return cur, nil
}

func refTile(out *ir.Program, tiles []int64) error {
	if len(out.Root) == 0 {
		return fmt.Errorf("transform: empty program")
	}
	loops, _ := ir.PerfectNest(out.Root[0])
	if len(tiles) == 0 {
		return nil
	}
	if len(tiles) > len(loops) {
		return fmt.Errorf("transform: %d tile sizes for a %d-deep nest", len(tiles), len(loops))
	}
	for _, t := range tiles {
		if t < 0 {
			return fmt.Errorf("transform: negative tile size %d", t)
		}
	}
	band := loops[:len(tiles)]
	var tileLoops []*ir.Loop
	pointLoops := make([]*ir.Loop, len(band))
	for idx, l := range band {
		t := tiles[idx]
		if t <= 1 {
			pointLoops[idx] = l
			continue
		}
		if l.Step != 1 {
			return fmt.Errorf("transform: cannot tile loop %s with step %d", l.Var, l.Step)
		}
		tv := l.Var + "_t"
		tileLoops = append(tileLoops, &ir.Loop{
			Var:  tv,
			Lo:   l.Lo,
			Hi:   l.Hi,
			Caps: append([]ir.Affine(nil), l.Caps...),
			Step: t,
		})
		pointCaps := make([]ir.Affine, 0, len(l.Caps)+1)
		pointCaps = append(pointCaps, l.Caps...)
		pointCaps = append(pointCaps, l.Hi)
		pointLoops[idx] = &ir.Loop{
			Var:  l.Var,
			Lo:   ir.Var(tv),
			Hi:   ir.Var(tv).AddConst(t),
			Caps: pointCaps,
			Step: 1,
		}
	}
	innerBody := band[len(band)-1].Body
	chain := append(append([]*ir.Loop{}, tileLoops...), pointLoops...)
	for i := 0; i < len(chain)-1; i++ {
		chain[i].Body = []ir.Node{chain[i+1]}
	}
	chain[len(chain)-1].Body = innerBody
	out.Root[0] = chain[0]
	return nil
}

func refParallelize(out *ir.Program, collapse int) error {
	if collapse < 1 {
		return fmt.Errorf("transform: collapse must be >= 1, got %d", collapse)
	}
	if len(out.Root) == 0 {
		return fmt.Errorf("transform: empty program")
	}
	loops, _ := ir.PerfectNest(out.Root[0])
	if len(loops) == 0 {
		return fmt.Errorf("transform: no loop to parallelize")
	}
	if collapse > len(loops) {
		return fmt.Errorf("transform: collapse %d exceeds nest depth %d", collapse, len(loops))
	}
	for i := 1; i < collapse; i++ {
		for _, b := range append([]ir.Affine{loops[i].Lo, loops[i].Hi}, loops[i].Caps...) {
			for j := 0; j < i; j++ {
				if b.Coeff(loops[j].Var) != 0 {
					return fmt.Errorf("transform: collapsed loop %s has non-rectangular bound on %s",
						loops[i].Var, loops[j].Var)
				}
			}
		}
	}
	loops[0].Parallel = true
	loops[0].Collapse = collapse
	return nil
}

func refAnnotateUnroll(out *ir.Program, factor int64) error {
	if factor < 1 {
		return fmt.Errorf("transform: unroll pragma factor must be >= 1, got %d", factor)
	}
	if len(out.Root) == 0 {
		return fmt.Errorf("transform: empty program")
	}
	loops, _ := ir.PerfectNest(out.Root[0])
	if len(loops) == 0 {
		return fmt.Errorf("transform: no loop to annotate")
	}
	inner := loops[len(loops)-1]
	if factor == 1 {
		inner.UnrollPragma = 0
	} else {
		inner.UnrollPragma = factor
	}
	return nil
}

// randomTiles draws up to depth+1 tile sizes in [0, 300]: one more than
// the nest is deep is refused, by both implementations alike. A quarter
// of the sizes are 0 or 1, which leave their level untiled — the case
// where tiling relinks a loop of the input's nest rather than a new one.
func randomTiles(rng *rand.Rand, depth int) []int64 {
	tiles := make([]int64, rng.Intn(depth+2))
	for i := range tiles {
		if rng.Intn(4) == 0 {
			tiles[i] = rng.Int63n(2)
		} else {
			tiles[i] = rng.Int63n(301)
		}
	}
	return tiles
}

// randomArgs mostly draws what the skeletons pass — collapse 1 or 2,
// no pragma or an unroll of 1–8 — and otherwise a collapse from -1 to
// two past the nest's depth and an unroll from -1 to 8, which Apply
// refuses where they do not fit the nest.
func randomArgs(rng *rand.Rand, depth int) applyArgs {
	a := applyArgs{tiles: randomTiles(rng, depth), collapse: 1 + rng.Intn(2)}
	if rng.Intn(2) == 0 {
		a.unroll = 1 + rng.Int63n(8)
	}
	if rng.Intn(4) == 0 {
		a.collapse = rng.Intn(depth+4) - 1
		a.unroll = rng.Int63n(10) - 1
	}
	return a
}

func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// FuzzSequenceMatchesReference: for a kernel's IR with one of its
// top-level nests put first (as outlining a region does) and up to four
// versions emitted from it in a row, Apply prints byte for byte what
// the deep-copy reference prints (or fails with its error text), the
// input's listing never changes, and no version changes the listing of
// one emitted before it. The same versions applied as one batch print
// the same listings, or the batch fails with the first failing
// version's index and error text. Tile is held to the reference tile
// alone.
func FuzzSequenceMatchesReference(f *testing.F) {
	ks := kernels.All()
	for k := range ks {
		for s := int64(0); s < 6; s++ {
			f.Add(uint8(k), uint8(s), s)
		}
	}
	f.Fuzz(func(t *testing.T, kernel, root uint8, seed int64) {
		k := ks[int(kernel)%len(ks)]
		rng := rand.New(rand.NewSource(seed))
		p := k.IR([]int64{1, 7, 64, k.BenchN}[rng.Intn(4)])
		r := int(root) % len(p.Root)
		p.Root[0], p.Root[r] = p.Root[r], p.Root[0]
		loops, _ := ir.PerfectNest(p.Root[0])
		before := p.String()

		var versions []*ir.Program
		var listings []string
		var batch []Version
		var batchWant []string // each version's reference listing, or its error text
		firstErr := -1
		for v := 1 + rng.Intn(4); v > 0; v-- {
			args := randomArgs(rng, len(loops))
			spec := args.spec()
			got, gotErr := applyOne(p, args.tiles, args.collapse, args.unroll)
			want, wantErr := refSequence(p, spec)
			batch = append(batch, Version{Tiles: args.tiles, Collapse: args.collapse, Unroll: args.unroll})
			if wantErr != nil {
				batchWant = append(batchWant, wantErr.Error())
				if firstErr < 0 {
					firstErr = len(batch) - 1
				}
			} else {
				batchWant = append(batchWant, want.String())
			}
			if errText(gotErr) != errText(wantErr) {
				t.Fatalf("%s %v: error %q, reference %q", k.Name, spec, errText(gotErr), errText(wantErr))
			}
			if gotErr != nil {
				if got != nil {
					t.Fatalf("%s %v: a failing Apply returned a program", k.Name, spec)
				}
			} else if g, w := got.String(), want.String(); g != w {
				t.Fatalf("%s %v:\n%s\nreference:\n%s", k.Name, spec, g, w)
			} else {
				versions = append(versions, got)
				listings = append(listings, g)
			}

			tiles := randomTiles(rng, len(loops))
			tiled, tileErr := Tile(p, tiles)
			ref := p.Clone()
			if refErr := refTile(ref, tiles); errText(tileErr) != errText(refErr) {
				t.Fatalf("%s Tile(%v): error %q, reference %q", k.Name, tiles, errText(tileErr), errText(refErr))
			} else if tileErr == nil {
				if g, w := tiled.String(), ref.String(); g != w {
					t.Fatalf("%s Tile(%v):\n%s\nreference:\n%s", k.Name, tiles, g, w)
				}
				versions = append(versions, tiled)
				listings = append(listings, ref.String())
			}

			if p.String() != before {
				t.Fatalf("%s %v: emitting a version changed the input:\n%s\nwas\n%s", k.Name, spec, p, before)
			}
			for i, earlier := range versions {
				if earlier.String() != listings[i] {
					t.Fatalf("%s %v: a later version changed version %d:\n%s\nwas\n%s", k.Name, spec, i, earlier, listings[i])
				}
			}
		}

		got, bad, err := Apply(p, batch...)
		switch {
		case firstErr >= 0:
			if err == nil || got != nil || bad != firstErr || err.Error() != batchWant[firstErr] {
				t.Fatalf("%s batch %v: (%d programs, version %d, %q), want version %d failing with %q",
					k.Name, batch, len(got), bad, errText(err), firstErr, batchWant[firstErr])
			}
		case err != nil:
			t.Fatalf("%s batch %v: version %d: %v", k.Name, batch, bad, err)
		default:
			for i, g := range got {
				if g.String() != batchWant[i] {
					t.Fatalf("%s batch version %d:\n%s\nreference:\n%s", k.Name, i, g, batchWant[i])
				}
			}
		}
		if p.String() != before {
			t.Fatalf("%s batch: applying the batch changed the input", k.Name)
		}
		for i, earlier := range versions {
			if earlier.String() != listings[i] {
				t.Fatalf("%s batch: applying the batch changed version %d", k.Name, i)
			}
		}
	})
}
