package driver

// EmitUnit exactly as it stood before it built a unit in one pass from
// unit-sized slabs, kept as a reference: one skeleton Apply, one
// listing and one set of metadata copies per version, and a C
// rendering that re-clones the kernel's IR and applies every skeleton a
// second time. FuzzEmitUnitMatchesReference holds the slab emission to
// its bytes.

import (
	"crypto/sha256"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"autotune/internal/analyzer"
	"autotune/internal/codegen"
	"autotune/internal/features"
	"autotune/internal/ir"
	"autotune/internal/kernels"
	"autotune/internal/machine"
	"autotune/internal/multiversion"
	"autotune/internal/optimizer"
	"autotune/internal/pareto"
	"autotune/internal/skeleton"
)

func refEmitUnit(k *kernels.Kernel, prog *ir.Program, region analyzer.Region,
	res *optimizer.Result, objectiveNames []string, n int64) (*multiversion.Unit, error) {
	unit := &multiversion.Unit{
		Region:         region.Skeleton.Name,
		ObjectiveNames: objectiveNames,
	}
	if fs, err := features.Extract(prog); err == nil {
		unit.Features = fs.AsMap()
	}
	var front []struct {
		cfg  skeleton.Config
		objs []float64
	}
	for _, p := range res.Front {
		front = append(front, struct {
			cfg  skeleton.Config
			objs []float64
		}{p.Payload.(skeleton.Config), p.Objectives})
	}
	sort.Slice(front, func(a, b int) bool { return front[a].objs[0] < front[b].objs[0] })
	outlined := region.Outline(prog)
	for _, fp := range front {
		transformed, insts, err := region.Skeleton.Apply(outlined, fp.cfg)
		if err != nil {
			return nil, fmt.Errorf("driver: instantiating %v: %w", fp.cfg, err)
		}
		inst := insts[0]
		tiles := append([]int64(nil), fp.cfg[:region.Band]...)
		threads := inst.Threads
		meta := multiversion.Meta{
			Config:     fp.cfg.Clone(),
			Tiles:      tiles,
			Threads:    threads,
			Unroll:     inst.Unroll,
			Objectives: append([]float64(nil), fp.objs...),
		}
		version := multiversion.Version{
			Meta: meta,
			Code: transformed[0].String(),
		}
		if k.Run != nil {
			runN, runTiles := n, tiles
			version.Entry = func() error {
				_, err := k.Run(runN, runTiles, threads)
				return err
			}
		}
		unit.Versions = append(unit.Versions, version)
	}
	if err := unit.Validate(); err != nil {
		return nil, err
	}
	return unit, nil
}

// refEmitC is TuneResult.EmitC as it stood: the kernel's IR built
// again, the region outlined again, and every version's skeleton
// applied a second time.
func refEmitC(k *kernels.Kernel, region analyzer.Region, n int64, unit *multiversion.Unit, funcName string) (string, error) {
	prog := region.Outline(k.IR(n))
	programs := make([]*ir.Program, 0, len(unit.Versions))
	for _, v := range unit.Versions {
		tp, _, err := region.Skeleton.Apply(prog, v.Meta.Config)
		if err != nil {
			return "", err
		}
		programs = append(programs, tp[0])
	}
	return codegen.EmitUnit(unit, programs, funcName)
}

// randomFront draws a front over the region's space: 1–14 points, or
// one time in four up to 48, past the 12 below which pdqsort sorts by
// insertion, so that ties go through its pivoting too. A third of the
// tile sizes are 1 (an untiled level), the rest anywhere in their
// range, so collapsed and uncollapsed shapes both occur. The first
// objective takes one of four values, so that points tie on it, and
// now and then NaN.
func randomFront(rng *rand.Rand, space skeleton.Space) *optimizer.Result {
	res := &optimizer.Result{}
	n := 1 + rng.Intn(14)
	if rng.Intn(4) == 0 {
		n = 1 + rng.Intn(48)
	}
	for i := n; i > 0; i-- {
		cfg := make(skeleton.Config, space.Dim())
		for d, prm := range space.Params {
			cfg[d] = prm.Min + rng.Int63n(prm.Max-prm.Min+1)
			if prm.Kind == skeleton.TileSize && rng.Intn(3) == 0 {
				cfg[d] = 1
			}
		}
		first := float64(rng.Intn(4))
		if rng.Intn(16) == 0 {
			first = math.NaN()
		}
		res.Front = append(res.Front, pareto.Point{Payload: cfg, Objectives: []float64{first, rng.Float64()}})
	}
	return res
}

func listingHash(p *ir.Program) [32]byte { return sha256.Sum256([]byte(p.String())) }

// FuzzEmitUnitMatchesReference: for every registered kernel, with and
// without the unroll dimension, and a random front, the slab emission
// builds the unit the one-version-at-a-time reference builds — Meta,
// Code and Features byte for byte, an Entry where it has one — and its
// C rendering from the programs it handed over is the reference's,
// which applies every skeleton again. A frozen hand-over: once a
// second unit has been emitted from the same program, the program and
// every version of the first unit — its program and its listing —
// hash as they did when the first unit was handed over.
func FuzzEmitUnitMatchesReference(f *testing.F) {
	ks := kernels.All()
	for k := range ks {
		for s := int64(0); s < 4; s++ {
			f.Add(uint8(k), s%2 == 1, s)
		}
	}
	names := []string{"time", "resources"}
	f.Fuzz(func(t *testing.T, kernel uint8, unroll bool, seed int64) {
		k := ks[int(kernel)%len(ks)]
		rng := rand.New(rand.NewSource(seed))
		p, err := prepareKernel(k.Name, Options{Machine: machine.Westmere(), UnrollDim: unroll})
		if err != nil {
			t.Fatal(err)
		}
		inputHash := listingHash(p.prog)
		res := randomFront(rng, p.region.Skeleton.Space)

		unit, programs, err := emitUnit(p.kernel, p.prog, p.region, res, names, p.n)
		want, wantErr := refEmitUnit(p.kernel, p.prog, p.region, res, names, p.n)
		if err != nil || wantErr != nil {
			t.Fatalf("%s: emission %v, reference %v", k.Name, err, wantErr)
		}
		if unit.Region != want.Region || fmt.Sprint(unit.ObjectiveNames) != fmt.Sprint(want.ObjectiveNames) ||
			fmt.Sprintf("%#v", unit.Features) != fmt.Sprintf("%#v", want.Features) || len(unit.Versions) != len(want.Versions) {
			t.Fatalf("%s: unit %q %v %v (%d versions), reference %q %v %v (%d)", k.Name,
				unit.Region, unit.ObjectiveNames, unit.Features, len(unit.Versions),
				want.Region, want.ObjectiveNames, want.Features, len(want.Versions))
		}
		if len(programs) != len(unit.Versions) {
			t.Fatalf("%s: %d programs for %d versions", k.Name, len(programs), len(unit.Versions))
		}
		handed := make([][32]byte, len(programs))
		codes := make([][32]byte, len(programs))
		for i, v := range unit.Versions {
			w := want.Versions[i]
			if g, r := fmt.Sprintf("%#v", v.Meta), fmt.Sprintf("%#v", w.Meta); g != r {
				t.Fatalf("%s version %d: meta\n%s\nreference\n%s", k.Name, i, g, r)
			}
			if v.Code != w.Code {
				t.Fatalf("%s version %d %v: code\n%s\nreference\n%s", k.Name, i, v.Meta.Config, v.Code, w.Code)
			}
			if programs[i].String() != v.Code {
				t.Fatalf("%s version %d: the handed-over program prints\n%s\nits code is\n%s", k.Name, i, programs[i], v.Code)
			}
			if (v.Entry == nil) != (w.Entry == nil) {
				t.Fatalf("%s version %d: entry %v, reference entry %v", k.Name, i, v.Entry != nil, w.Entry != nil)
			}
			handed[i] = listingHash(programs[i])
			codes[i] = sha256.Sum256([]byte(v.Code))
		}
		gotC, gotErr := codegen.EmitUnit(unit, programs, k.Name)
		wantC, refErr := refEmitC(p.kernel, p.region, p.n, want, k.Name)
		if errText(gotErr) != errText(refErr) || gotC != wantC {
			t.Fatalf("%s: C unit (%v)\n%s\nreference (%v)\n%s", k.Name, gotErr, gotC, refErr, wantC)
		}

		// The next unit from the same program is the last version built.
		if _, _, err := emitUnit(p.kernel, p.prog, p.region, randomFront(rng, p.region.Skeleton.Space), names, p.n); err != nil {
			t.Fatal(err)
		}
		if listingHash(p.prog) != inputHash {
			t.Fatalf("%s: emitting changed the program it was handed", k.Name)
		}
		for i, v := range unit.Versions {
			if listingHash(programs[i]) != handed[i] || sha256.Sum256([]byte(v.Code)) != codes[i] {
				t.Fatalf("%s: a later emission changed version %d", k.Name, i)
			}
		}
	})
}

func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}
