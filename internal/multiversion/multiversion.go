// Package multiversion implements the backend stage of the framework
// (label 5 in the paper's Fig. 3): for each tuned region it aggregates
// one specialized code version per Pareto-optimal configuration into a
// version table, annotated with the meta-information — the represented
// objective trade-off — the runtime system consults when selecting a
// version.
//
// A Unit is the analogue of the paper's "multi-versioned executable":
// serializable metadata plus (for in-process use) an executable entry
// point per version. The JSON form round-trips everything except the
// entry closures, which are re-attached on load via a Binder.
package multiversion

import (
	"encoding/json"
	"errors"
	"fmt"

	"autotune/internal/skeleton"
)

// Meta is the per-version meta-information embedded in the version
// table: the configuration and the objective trade-off it represents.
type Meta struct {
	// Config is the raw optimizer configuration [tiles..., threads].
	Config skeleton.Config `json:"config"`
	// Tiles are the bound tile sizes.
	Tiles []int64 `json:"tiles"`
	// Threads is the bound thread count.
	Threads int `json:"threads"`
	// Unroll is the bound innermost-loop unroll factor (0 or 1 =
	// none).
	Unroll int64 `json:"unroll,omitempty"`
	// Objectives are the (minimized) objective values measured for
	// this version during tuning.
	Objectives []float64 `json:"objectives"`
}

// Entry executes one code version. It is attached in process and not
// serialized.
type Entry func() error

// Version is one specialized code version.
type Version struct {
	Meta Meta `json:"meta"`
	// Code is the human-readable listing of the transformed region
	// (the source the backend would emit).
	Code string `json:"code,omitempty"`
	// Entry runs the version; nil for deserialized units until bound.
	Entry Entry `json:"-"`
}

// Unit is the multi-versioned compilation result for one region.
type Unit struct {
	// Region names the tuned region.
	Region string `json:"region"`
	// ObjectiveNames labels the objective vector components.
	ObjectiveNames []string `json:"objectiveNames"`
	// Features carries the region's compiler-deduced static features
	// (internal/features), available to runtime decision making.
	Features map[string]float64 `json:"features,omitempty"`
	// Versions is the version table, one entry per Pareto point.
	Versions []Version `json:"versions"`
}

// Validate checks structural consistency.
func (u *Unit) Validate() error {
	if u.Region == "" {
		return errors.New("multiversion: unit without region name")
	}
	if len(u.Versions) == 0 {
		return errors.New("multiversion: unit without versions")
	}
	m := len(u.ObjectiveNames)
	if m == 0 {
		return errors.New("multiversion: unit without objective names")
	}
	for i, v := range u.Versions {
		if len(v.Meta.Objectives) != m {
			return fmt.Errorf("multiversion: version %d has %d objectives, want %d",
				i, len(v.Meta.Objectives), m)
		}
		if v.Meta.Threads < 1 {
			return fmt.Errorf("multiversion: version %d has invalid thread count %d", i, v.Meta.Threads)
		}
	}
	return nil
}

// MarshalJSON-friendly encode/decode helpers.

// Encode serializes the unit (without entry closures).
func (u *Unit) Encode() ([]byte, error) {
	return json.MarshalIndent(u, "", "  ")
}

// Decode deserializes a unit. Entries are nil afterwards; use Bind.
func Decode(data []byte) (*Unit, error) {
	var u Unit
	if err := json.Unmarshal(data, &u); err != nil {
		return nil, fmt.Errorf("multiversion: %w", err)
	}
	if err := u.Validate(); err != nil {
		return nil, err
	}
	return &u, nil
}

// Binder attaches an executable entry point to a version's metadata —
// the in-process analogue of the dynamic linker resolving the function
// pointers of the embedded version table.
type Binder func(m Meta) (Entry, error)

// Bind attaches entries to every version.
func (u *Unit) Bind(b Binder) error {
	for i := range u.Versions {
		e, err := b(u.Versions[i].Meta)
		if err != nil {
			return fmt.Errorf("multiversion: binding version %d: %w", i, err)
		}
		u.Versions[i].Entry = e
	}
	return nil
}
