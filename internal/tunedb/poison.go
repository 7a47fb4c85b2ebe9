//go:build poison

package tunedb

// poison overwrites scratch a write or a scan has released with bad, a
// value no reader may find there — 0xff is no byte of a stored value or
// key, -1 no end of one — so that a reader that kept it without copying
// reads nonsense at once, whatever the scheduler does. Only a build
// with the poison tag does this; otherwise poison is a no-op.
func poison[E any](released []E, bad E) {
	for i := range released {
		released[i] = bad
	}
}
