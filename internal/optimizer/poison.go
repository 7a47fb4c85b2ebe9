//go:build poison

package optimizer

import "math"

// poison overwrites memory an island has released with a value outside
// every space, so that a reader that should have copied it reads
// nonsense at once, whatever the scheduler does. Only a build with the
// poison tag does this; otherwise poison is a no-op.
func poison(released []int64) {
	for i := range released {
		released[i] = math.MinInt64
	}
}
