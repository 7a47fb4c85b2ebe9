//go:build race

// Package israce reports whether the binary was built with the race
// detector. Allocation-budget tests skip themselves under it: the
// detector's instrumentation allocates.
package israce

// Enabled is true in -race builds.
const Enabled = true
