package rts

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"autotune/internal/multiversion"
)

// Manager arbitrates a machine-wide core budget among several
// multi-versioned regions — the paper's "system wide performance
// settings may be considered" scenario. Each registered region has its
// own runtime and policy; the manager constrains every selection by
// the cores currently unclaimed by other in-flight invocations, so
// concurrently running regions co-exist instead of oversubscribing the
// machine.
type Manager struct {
	totalCores int

	mu            sync.Mutex
	regions       map[string]*Runtime
	inUse         int
	stats         map[string]*InvocationStats
	invokeTimeout time.Duration
}

// NewManager builds a manager for a machine with the given core count.
func NewManager(totalCores int) (*Manager, error) {
	if totalCores < 1 {
		return nil, errors.New("rts: manager needs at least one core")
	}
	return &Manager{
		totalCores: totalCores,
		regions:    map[string]*Runtime{},
		stats:      map[string]*InvocationStats{},
	}, nil
}

// Register adds a region's runtime under its unit's region name.
func (m *Manager) Register(rt *Runtime) error {
	name := rt.Unit().Region
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, dup := m.regions[name]; dup {
		return fmt.Errorf("rts: region %q already registered", name)
	}
	m.regions[name] = rt
	m.stats[name] = newInvocationStats()
	if m.invokeTimeout > 0 {
		rt.SetEntryTimeout(m.invokeTimeout)
	}
	return nil
}

// SetInvokeTimeout bounds every entry attempt of every registered
// runtime (present and future) — the machine-wide guard against one
// region's hung version stalling a shared-budget invocation. It
// propagates through Runtime.SetEntryTimeout, so a timed-out attempt
// falls back along the policy ranking like any other failure. Zero or
// negative disables the bound.
func (m *Manager) SetInvokeTimeout(d time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.invokeTimeout = d
	for _, rt := range m.regions {
		rt.SetEntryTimeout(d)
	}
}

// Regions lists the registered region names, sorted.
func (m *Manager) Regions() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	var names []string
	for n := range m.regions {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// CoresInUse returns the cores currently claimed by in-flight
// invocations.
func (m *Manager) CoresInUse() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.inUse
}

// Invoke runs one invocation of the named region. The selection is
// constrained to versions fitting the currently free cores; the chosen
// version's cores are claimed for the duration of the execution. When
// a version's entry fails, the invocation falls back down the policy
// ranking, re-negotiating the core claim per candidate; failures and
// fallbacks are recorded in the region's stats. Returns the executed
// version index.
func (m *Manager) Invoke(region string) (int, error) {
	m.mu.Lock()
	rt, ok := m.regions[region]
	if !ok {
		m.mu.Unlock()
		return 0, fmt.Errorf("rts: unknown region %q", region)
	}
	free := m.totalCores - m.inUse
	m.mu.Unlock()
	if free < 1 {
		return 0, fmt.Errorf("rts: no cores free for region %q", region)
	}

	// Rank under the free-core budget without writing it into the
	// runtime's context, which a direct Invoke keeps using; the
	// fallback engine claims each candidate's cores just before it
	// runs and releases them when it returns.
	record := func(mut func(*InvocationStats)) {
		m.mu.Lock()
		mut(m.stats[region])
		m.mu.Unlock()
	}
	acquire := func(idx int) (func(), error) {
		need := rt.unit.Versions[idx].Meta.Threads
		m.mu.Lock()
		if m.totalCores-m.inUse < need {
			m.mu.Unlock()
			return nil, errors.New("lost cores to a concurrent invocation")
		}
		m.inUse += need
		m.mu.Unlock()
		return func() {
			m.mu.Lock()
			m.inUse -= need
			m.mu.Unlock()
		}, nil
	}
	idx, err := rt.invokeRanked(Context{AvailableCores: free}, record, acquire)
	if err != nil {
		return idx, fmt.Errorf("rts: region %q: %w", region, err)
	}
	return idx, nil
}

// Stats returns a copy of the per-region invocation statistics.
func (m *Manager) Stats() map[string]InvocationStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := map[string]InvocationStats{}
	for name, st := range m.stats {
		out[name] = st.clone()
	}
	return out
}

// Unit returns the registered unit for a region (nil if absent) —
// convenience for inspecting metadata.
func (m *Manager) Unit(region string) *multiversion.Unit {
	m.mu.Lock()
	defer m.mu.Unlock()
	if rt, ok := m.regions[region]; ok {
		return rt.Unit()
	}
	return nil
}
