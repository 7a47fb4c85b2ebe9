// Package resilience hardens long-running searches against hangs,
// transient faults and interruptions: a watchdog/retry middleware for
// the shared evaluation cache (Guard), a generic call timeout for
// runtime entry points (RunWithTimeout), and crash-safe checkpoint
// journals — logs of internal/store's CRC frames — that let an
// interrupted search resume exactly where it stopped (Checkpoint).
package resilience

import (
	"errors"
	"time"
)

// ErrTimedOut reports that a watchdogged call exceeded its deadline and
// was abandoned.
var ErrTimedOut = errors.New("resilience: timed out")

// RunWithTimeout runs fn, waiting at most d for it to finish. On
// timeout it returns ErrTimedOut immediately; the abandoned fn
// goroutine runs to completion in the background (Go cannot kill it),
// so fn must not hold locks the caller needs. A non-positive d runs fn
// inline with no watchdog.
func RunWithTimeout(d time.Duration, fn func() error) error {
	if d <= 0 {
		return fn()
	}
	done := make(chan error, 1)
	go func() { done <- fn() }()
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case err := <-done:
		return err
	case <-t.C:
		return ErrTimedOut
	}
}
