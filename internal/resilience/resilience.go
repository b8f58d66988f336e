// Package resilience is tpmd's fault-tolerance toolkit: error
// classification (transient vs permanent), retry with exponential
// backoff and jitter, and a pluggable fault-injection layer that the
// persistence tests and the -fault-profile dev flag use to exercise
// both deterministically.
//
// The pieces compose but do not know about each other:
//
//   - IsPermanent reports whether an I/O error is permanent (retrying is
//     futile until an operator intervenes: ENOSPC, EROFS, permission
//     errors) rather than transient (worth retrying: EIO, EINTR,
//     timeouts).
//   - RetryPolicy.Do retries transient failures with capped exponential
//     backoff + jitter and gives up immediately on permanent ones.
//   - Injector is the seam through which tests and the -fault-profile
//     flag plant errors, latency, and partial writes inside
//     internal/persist's WAL and snapshot I/O.
//
// internal/persist wires the injector and retry policy into its write
// paths; internal/server's resilient journal scores the failures that
// get through, weighting permanent ones double, and turns repeated ones
// into read-only degraded mode (mutations 503, reads keep serving) with
// a background recovery probe.
package resilience

import (
	"errors"
	"os"
	"syscall"
)

// ErrPermanent is a classification marker: an error wrapping it is
// permanent regardless of its underlying cause. Callers tag failures
// that must never be retried with it — e.g. a WAL whose tail state is
// unknown after a failed rollback.
var ErrPermanent = errors.New("permanent failure")

// IsPermanent reports whether err will keep failing until something
// outside the process changes: disk full, read-only filesystem,
// permissions, or a failure tagged ErrPermanent. Every other error is
// transient — retrying an unknown failure a bounded number of times is
// cheap, while misclassifying a recoverable blip as permanent needlessly
// trips the server into degraded mode.
func IsPermanent(err error) bool {
	return errors.Is(err, ErrPermanent) ||
		errors.Is(err, syscall.ENOSPC) ||
		errors.Is(err, syscall.EROFS) ||
		errors.Is(err, os.ErrPermission)
}
