//go:build !poison

package tunedb

// poison is a no-op: see poison.go, built with the poison tag.
func poison[E any]([]E, E) {}
