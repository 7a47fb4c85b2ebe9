//go:build !poison

package optimizer

// poison is a no-op: see poison.go, built with the poison tag.
func poison([]int64) {}
