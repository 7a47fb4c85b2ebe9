//go:build !race

package israce

// Enabled is true in -race builds.
const Enabled = false
