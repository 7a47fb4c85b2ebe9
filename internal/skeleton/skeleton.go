// Package skeleton defines transformation skeletons: generic sequences
// of code transformations with unbound parameters (tile sizes, unroll
// factors, thread counts, optional flags), together with the parameter
// spaces the optimizer searches.
//
// A Skeleton couples a parameter Space with an instantiation function
// that binds a concrete Config to an Instance: the parameters of the
// transformation internal/transform applies (tile sizes, collapse,
// unroll factor) plus the execution parameters (thread count) the
// evaluator needs. The optimizer treats all tuning options
// uniformly as integer dimensions, exactly as the paper describes.
package skeleton

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strconv"

	"autotune/internal/ir"
	"autotune/internal/transform"
)

// ParamKind distinguishes how a parameter is interpreted when a
// configuration is instantiated.
type ParamKind int

const (
	// TileSize parameters feed the tiling transformation.
	TileSize ParamKind = iota
	// ThreadCount parameters select the number of worker threads.
	ThreadCount
	// UnrollFactor parameters feed the unrolling transformation.
	UnrollFactor
)

// String returns the kind name.
func (k ParamKind) String() string {
	switch k {
	case TileSize:
		return "tile"
	case ThreadCount:
		return "threads"
	case UnrollFactor:
		return "unroll"
	default:
		return fmt.Sprintf("ParamKind(%d)", int(k))
	}
}

// Param is one tunable dimension with inclusive integer bounds.
type Param struct {
	Name     string
	Kind     ParamKind
	Min, Max int64
}

// Space is an ordered list of parameters; it defines the search space C
// of the multi-objective optimization problem.
type Space struct {
	Params []Param
}

// Dim returns the number of parameters.
func (s Space) Dim() int { return len(s.Params) }

// Validate checks bounds sanity.
func (s Space) Validate() error {
	if len(s.Params) == 0 {
		return fmt.Errorf("skeleton: empty parameter space")
	}
	seen := map[string]bool{}
	for _, p := range s.Params {
		if p.Name == "" {
			return fmt.Errorf("skeleton: parameter with empty name")
		}
		if seen[p.Name] {
			return fmt.Errorf("skeleton: duplicate parameter %s", p.Name)
		}
		seen[p.Name] = true
		if p.Min > p.Max {
			return fmt.Errorf("skeleton: parameter %s has min %d > max %d", p.Name, p.Min, p.Max)
		}
	}
	return nil
}

// Config assigns one value per parameter, aligned with Space.Params.
type Config []int64

// Clone copies the configuration.
func (c Config) Clone() Config { return append(Config(nil), c...) }

// Key returns a map-key string identity for caching: the decimal values
// joined by commas. The string is persisted — in tunedb store keys and
// checkpoint fingerprints — so its bytes are pinned against the
// fmt.Sprint + strings.Join reference in key_test.go.
func (c Config) Key() string {
	var buf [64]byte // four-parameter configurations render well within it
	return string(c.AppendKey(buf[:0]))
}

// AppendKey appends the bytes of Key to b and returns the extended
// buffer, so that the keys of a batch can be rendered end to end into
// one buffer and cut from one string.
func (c Config) AppendKey(b []byte) []byte {
	for i, v := range c {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, v, 10)
	}
	return b
}

// In reports whether the configuration lies within the space bounds.
func (s Space) In(c Config) bool {
	if len(c) != len(s.Params) {
		return false
	}
	for i, p := range s.Params {
		if c[i] < p.Min || c[i] > p.Max {
			return false
		}
	}
	return true
}

// Clip clamps every component of c to the space bounds, returning a new
// configuration.
func (s Space) Clip(c Config) Config {
	out := c.Clone()
	for i, p := range s.Params {
		if i >= len(out) {
			break
		}
		if out[i] < p.Min {
			out[i] = p.Min
		}
		if out[i] > p.Max {
			out[i] = p.Max
		}
	}
	return out
}

// Random draws a uniform random configuration from the space.
func (s Space) Random(rng *rand.Rand) Config {
	return AppendRandom(make(Config, 0, len(s.Params)), s, rng)
}

// AppendRandom appends a uniform random configuration of space to dst,
// the draws of Random, and returns the extended slice, so that many
// draws share one slab; dst grows at most once. It draws one value per
// parameter, in order.
func AppendRandom(dst Config, space Space, rng *rand.Rand) Config {
	dst = slices.Grow(dst, len(space.Params))
	for _, p := range space.Params {
		span := p.Max - p.Min + 1
		dst = append(dst, p.Min+rng.Int63n(span))
	}
	return dst
}

// Box is an axis-aligned hyper-rectangle inside a Space: the reduced
// search space computed by the rough-set mechanism. Bounds are
// inclusive.
type Box struct {
	Lo, Hi []int64
}

// FullBox returns the box spanning the entire space. Lo and Hi are cut
// from one allocation, each capped at its length.
func (s Space) FullBox() Box {
	n := len(s.Params)
	bounds := make([]int64, 2*n)
	b := Box{Lo: bounds[:n:n], Hi: bounds[n:]}
	for i, p := range s.Params {
		b.Lo[i] = p.Min
		b.Hi[i] = p.Max
	}
	return b
}

// AppendClosestTo maps an arbitrary real-valued vector to the nearest
// configuration inside the box (the B.getClosestTo(r) operation of the
// paper's Algorithm 1): each component is rounded to the nearest
// integer and clamped to the box bounds. The configuration is appended
// to dst, so a generation's trials can be written into one slab.
func (b Box) AppendClosestTo(dst Config, v []float64) Config {
	for i := range b.Lo {
		x := int64(math.Round(v[i]))
		if x < b.Lo[i] {
			x = b.Lo[i]
		}
		if x > b.Hi[i] {
			x = b.Hi[i]
		}
		dst = append(dst, x)
	}
	return dst
}

// Instance is the result of binding a Config to a skeleton, as plain
// data: the parameters of the transformation applied to the region's
// MiniIR — tile sizes, the loops collapsed into the parallel
// distribution, the unroll factor — plus the thread count the
// evaluator, not the code generator, consumes.
type Instance struct {
	// Tiles has one size per band loop; it is a capped cut of the
	// configuration, not a copy.
	Tiles    []int64
	Collapse int
	Threads  int
	Unroll   int64
}

// Skeleton is a generic transformation sequence with unbound
// parameters.
type Skeleton struct {
	Name        string
	Space       Space
	Instantiate func(cfg Config) (Instance, error)
}

// Apply instantiates the skeleton for each configuration and builds
// its version of the program — tiling, parallelization and, when the
// space has an unroll dimension, the unroll pragma — in one
// transform.Apply over all of them, so the versions are cut from slabs
// sized for the batch. The instances come back beside the versions, in
// the configurations' order. An error names the first configuration
// that cannot be instantiated or built, and then nothing is returned.
func (sk *Skeleton) Apply(p *ir.Program, cfgs ...Config) ([]*ir.Program, []Instance, error) {
	unrollDim := false
	for _, prm := range sk.Space.Params {
		unrollDim = unrollDim || prm.Kind == UnrollFactor
	}
	insts := make([]Instance, len(cfgs))
	vs := make([]transform.Version, len(cfgs))
	for i, cfg := range cfgs {
		if !sk.Space.In(cfg) {
			return nil, nil, fmt.Errorf("skeleton %s: configuration %v outside space", sk.Name, cfg)
		}
		inst, err := sk.Instantiate(cfg)
		if err != nil {
			return nil, nil, fmt.Errorf("skeleton %s: configuration %v: %w", sk.Name, cfg, err)
		}
		insts[i] = inst
		vs[i] = transform.Version{Tiles: inst.Tiles, Collapse: inst.Collapse}
		if unrollDim {
			vs[i].Unroll = inst.Unroll // 0, no pragma written, otherwise
		}
	}
	out, bad, err := transform.Apply(p, vs...)
	if err != nil {
		return nil, nil, fmt.Errorf("skeleton %s: configuration %v: %w", sk.Name, cfgs[bad], err)
	}
	return out, insts, nil
}

// TiledParallel builds the paper's standard skeleton for a nest of
// depth `band`: tile the band with one tile-size parameter per loop,
// collapse the two outermost tile loops (when the band allows it) and
// parallelize the outermost loop with a tunable thread count.
//
// Parameter layout: [t1 .. t_band, threads].
// Tile sizes range over [1, maxTile]; thread counts over [1, maxThreads].
func TiledParallel(name string, band int, maxTile int64, maxThreads int, collapse bool) *Skeleton {
	space := Space{}
	for i := 0; i < band; i++ {
		space.Params = append(space.Params, Param{
			Name: fmt.Sprintf("t%d", i+1), Kind: TileSize, Min: 1, Max: maxTile,
		})
	}
	space.Params = append(space.Params, Param{
		Name: "threads", Kind: ThreadCount, Min: 1, Max: int64(maxThreads),
	})
	return &Skeleton{
		Name:  name,
		Space: space,
		Instantiate: func(cfg Config) (Instance, error) {
			if len(cfg) != band+1 {
				return Instance{}, fmt.Errorf("want %d parameters, got %d", band+1, len(cfg))
			}
			tiles := cfg[:band:band]
			col := 1
			// Collapsing needs two tiled outer loops; with unit tiles
			// the tile loops vanish, so fall back to collapse(1).
			if collapse && band >= 2 && tiles[0] > 1 && tiles[1] > 1 {
				col = 2
			}
			return Instance{Tiles: tiles, Collapse: col, Threads: int(cfg[band]), Unroll: 1}, nil
		},
	}
}

// TiledParallelUnroll extends TiledParallel with an innermost-loop
// unroll factor as one more tuning dimension ("unrolling factors" are
// among the paper's example parameters). Parameter layout:
// [t1 .. t_band, threads, unroll], unroll in [1, maxUnroll].
func TiledParallelUnroll(name string, band int, maxTile int64, maxThreads int, collapse bool, maxUnroll int64) *Skeleton {
	base := TiledParallel(name, band, maxTile, maxThreads, collapse)
	space := base.Space
	space.Params = append(space.Params, Param{
		Name: "unroll", Kind: UnrollFactor, Min: 1, Max: maxUnroll,
	})
	baseInst := base.Instantiate
	return &Skeleton{
		Name:  name,
		Space: space,
		Instantiate: func(cfg Config) (Instance, error) {
			if len(cfg) != band+2 {
				return Instance{}, fmt.Errorf("want %d parameters, got %d", band+2, len(cfg))
			}
			inst, err := baseInst(cfg[:band+1])
			if err != nil {
				return Instance{}, err
			}
			inst.Unroll = cfg[band+1]
			return inst, nil
		},
	}
}
