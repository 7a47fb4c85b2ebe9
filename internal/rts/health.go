package rts

// Per-version health tracking: a consecutive-failure circuit breaker
// that quarantines flaky versions for a cool-down measured in runtime
// invocations, then re-admits them through a single probe attempt.
// Quarantined versions are skipped by Invoke's fallback loop, so a
// persistently broken version stops being tried on every invocation
// while the remaining Pareto versions keep serving.

// Default circuit-breaker parameters, applied when the corresponding
// HealthConfig field is zero.
const (
	defaultFailureThreshold = 3
	defaultCooldown         = 20
)

// HealthConfig tunes the per-version circuit breaker.
type HealthConfig struct {
	// FailureThreshold is the number of consecutive failures after
	// which a version is quarantined. 0 means 3; negative disables
	// quarantining.
	FailureThreshold int
	// Cooldown is how many subsequent runtime invocations a
	// quarantined version sits out before one probe attempt is
	// allowed. 0 means 20.
	Cooldown int
}

func (c HealthConfig) withDefaults() HealthConfig {
	if c.FailureThreshold == 0 {
		c.FailureThreshold = defaultFailureThreshold
	}
	if c.Cooldown == 0 {
		c.Cooldown = defaultCooldown
	}
	return c
}

// VersionHealth is a snapshot of one version's circuit-breaker state.
type VersionHealth struct {
	// ConsecutiveFailures is the current failure streak.
	ConsecutiveFailures int
	// Quarantined reports whether the version is sitting out.
	Quarantined bool
	// ProbeIn is how many invocations remain until a quarantined
	// version may probe; 0 when healthy or already probe-eligible.
	ProbeIn int
}

type versionState struct {
	fails       int
	quarantined bool
	probeAt     int
}

// healthTracker implements the circuit breaker. It is not
// self-synchronizing: every method must be called with the owning
// runtime's mutex held.
type healthTracker struct {
	cfg  HealthConfig
	tick int // advanced once per runtime invocation
	vs   map[int]*versionState
}

func newHealthTracker(cfg HealthConfig) *healthTracker {
	return &healthTracker{cfg: cfg.withDefaults(), vs: map[int]*versionState{}}
}

func (h *healthTracker) state(idx int) *versionState {
	s := h.vs[idx]
	if s == nil {
		s = &versionState{}
		h.vs[idx] = s
	}
	return s
}

// eligible reports whether a version may be attempted: healthy, or
// quarantined with an expired cool-down (probe).
func (h *healthTracker) eligible(idx int) bool {
	s := h.vs[idx]
	if s == nil || !s.quarantined {
		return true
	}
	return h.tick >= s.probeAt
}

// success records a successful attempt and reports whether the version
// was re-admitted from quarantine (a successful probe).
func (h *healthTracker) success(idx int) (readmitted bool) {
	s := h.state(idx)
	readmitted = s.quarantined
	s.fails = 0
	s.quarantined = false
	s.probeAt = 0
	return readmitted
}

// failure records a failed attempt and reports whether the version
// entered (or, after a failed probe, re-entered) quarantine.
func (h *healthTracker) failure(idx int) (quarantined bool) {
	s := h.state(idx)
	s.fails++
	if s.quarantined {
		s.probeAt = h.tick + h.cfg.Cooldown
		return true
	}
	if h.cfg.FailureThreshold > 0 && s.fails >= h.cfg.FailureThreshold {
		s.quarantined = true
		s.probeAt = h.tick + h.cfg.Cooldown
		return true
	}
	return false
}

// snapshot copies the tracked state for observability.
func (h *healthTracker) snapshot() map[int]VersionHealth {
	out := make(map[int]VersionHealth, len(h.vs))
	for idx, s := range h.vs {
		vh := VersionHealth{ConsecutiveFailures: s.fails, Quarantined: s.quarantined}
		if s.quarantined && s.probeAt > h.tick {
			vh.ProbeIn = s.probeAt - h.tick
		}
		out[idx] = vh
	}
	return out
}
