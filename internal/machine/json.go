package machine

import (
	"encoding/json"
	"fmt"
)

// jsonMachine mirrors Machine with tagged fields for stable JSON: the
// -machine-file format of cmd/autotune.
type jsonMachine struct {
	Name               string      `json:"name"`
	Sockets            int         `json:"sockets"`
	CoresPerSocket     int         `json:"coresPerSocket"`
	ThreadsPerCore     int         `json:"threadsPerCore"`
	ClockGHz           float64     `json:"clockGHz"`
	TurboGHz           float64     `json:"turboGHz,omitempty"`
	FlopsPerCycle      float64     `json:"flopsPerCycle"`
	Caches             []jsonCache `json:"caches"`
	MemLatencyCycles   float64     `json:"memLatencyCycles"`
	MemBandwidthGBs    float64     `json:"memBandwidthGBs"`
	ParallelOverheadUS float64     `json:"parallelOverheadUS"`
	NUMAPenalty        float64     `json:"numaPenalty,omitempty"`
	KernelVersion      string      `json:"kernelVersion,omitempty"`
}

type jsonCache struct {
	Name          string  `json:"name"`
	SizeBytes     int64   `json:"sizeBytes"`
	LineBytes     int     `json:"lineBytes"`
	Associativity int     `json:"associativity"`
	LatencyCycles float64 `json:"latencyCycles"`
	Scope         string  `json:"scope"`
}

// FromJSON deserializes and validates a machine description.
func FromJSON(data []byte) (*Machine, error) {
	var jm jsonMachine
	if err := json.Unmarshal(data, &jm); err != nil {
		return nil, fmt.Errorf("machine: %w", err)
	}
	m := &Machine{
		Name:               jm.Name,
		Sockets:            jm.Sockets,
		CoresPerSocket:     jm.CoresPerSocket,
		ThreadsPerCore:     jm.ThreadsPerCore,
		ClockGHz:           jm.ClockGHz,
		TurboGHz:           jm.TurboGHz,
		FlopsPerCycle:      jm.FlopsPerCycle,
		MemLatencyCycles:   jm.MemLatencyCycles,
		MemBandwidthGBs:    jm.MemBandwidthGBs,
		ParallelOverheadUS: jm.ParallelOverheadUS,
		NUMAPenalty:        jm.NUMAPenalty,
		KernelVersion:      jm.KernelVersion,
	}
	for _, c := range jm.Caches {
		scope, err := parseScope(c.Scope)
		if err != nil {
			return nil, err
		}
		m.Caches = append(m.Caches, CacheLevel{
			Name:          c.Name,
			SizeBytes:     c.SizeBytes,
			LineBytes:     c.LineBytes,
			Associativity: c.Associativity,
			LatencyCycles: c.LatencyCycles,
			Scope:         scope,
		})
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return m, nil
}

func parseScope(s string) (CacheScope, error) {
	switch s {
	case "per-core", "":
		return PerCore, nil
	case "per-socket":
		return PerSocket, nil
	case "global":
		return Global, nil
	default:
		return 0, fmt.Errorf("machine: unknown cache scope %q", s)
	}
}
