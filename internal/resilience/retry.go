package resilience

import (
	"math/rand"
	"time"
)

// Retry defaults; see RetryPolicy.
const (
	DefaultRetryAttempts = 3
	DefaultRetryBase     = 5 * time.Millisecond
	DefaultRetryMax      = 80 * time.Millisecond
)

// RetryPolicy retries an operation on transient failure with capped
// exponential backoff and full jitter. Permanent failures (IsPermanent)
// abort immediately: retrying a full disk only delays the error the
// caller needs to see. The zero value selects the defaults.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries (first attempt
	// included). 0 means DefaultRetryAttempts; 1 disables retrying.
	MaxAttempts int
	// BaseDelay is the backoff before the first retry; it doubles per
	// retry up to MaxDelay. 0 means DefaultRetryBase.
	BaseDelay time.Duration
	// MaxDelay caps the backoff. 0 means DefaultRetryMax.
	MaxDelay time.Duration
	// Sleep replaces time.Sleep; tests inject a no-op to retry
	// instantly. nil means time.Sleep.
	Sleep func(time.Duration)
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = DefaultRetryAttempts
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = DefaultRetryBase
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = DefaultRetryMax
	}
	if p.Sleep == nil {
		p.Sleep = time.Sleep
	}
	return p
}

// Do runs op, retrying transient errors up to MaxAttempts total tries.
// onRetry, if non-nil, is called before each backoff sleep with the
// failing attempt's error and number (1-based) — the hook for logging
// and retry metrics. The returned error is the last attempt's.
func (p RetryPolicy) Do(op func() error, onRetry func(err error, attempt int)) error {
	p = p.withDefaults()
	delay := p.BaseDelay
	for attempt := 1; ; attempt++ {
		err := op()
		if err == nil || IsPermanent(err) || attempt >= p.MaxAttempts {
			return err
		}
		if onRetry != nil {
			onRetry(err, attempt)
		}
		// Full jitter: a uniform draw from (0, delay] keeps concurrent
		// retriers from re-colliding in lockstep.
		p.Sleep(time.Duration(rand.Int63n(int64(delay)) + 1))
		if delay *= 2; delay > p.MaxDelay {
			delay = p.MaxDelay
		}
	}
}
