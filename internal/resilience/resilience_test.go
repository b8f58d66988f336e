package resilience

import (
	"errors"
	"fmt"
	"os"
	"syscall"
	"testing"
	"time"
)

// TestClassify pins IsPermanent's split of I/O errors into permanent
// (never retried, weighted double toward degraded mode) and transient.
func TestClassify(t *testing.T) {
	cases := []struct {
		err       error
		permanent bool
	}{
		{syscall.ENOSPC, true},
		{syscall.EROFS, true},
		{os.ErrPermission, true},
		{fmt.Errorf("persist: WAL append: %w", syscall.ENOSPC), true},
		{fmt.Errorf("wal rollback: %w", ErrPermanent), true},
		{syscall.EIO, false},
		{syscall.EINTR, false},
		{os.ErrDeadlineExceeded, false},
		{errors.New("mystery"), false},
		{nil, false},
	}
	for _, c := range cases {
		if got := IsPermanent(c.err); got != c.permanent {
			t.Errorf("IsPermanent(%v) = %v, want %v", c.err, got, c.permanent)
		}
	}
}

func TestRetryTransientEventuallySucceeds(t *testing.T) {
	calls, retries := 0, 0
	p := RetryPolicy{MaxAttempts: 5, Sleep: func(time.Duration) {}}
	err := p.Do(func() error {
		calls++
		if calls < 3 {
			return syscall.EIO
		}
		return nil
	}, func(err error, attempt int) {
		retries++
		if !errors.Is(err, syscall.EIO) {
			t.Errorf("onRetry err = %v", err)
		}
	})
	if err != nil || calls != 3 || retries != 2 {
		t.Errorf("err=%v calls=%d retries=%d, want nil/3/2", err, calls, retries)
	}
}

func TestRetryPermanentFailsFast(t *testing.T) {
	calls := 0
	p := RetryPolicy{MaxAttempts: 5, Sleep: func(time.Duration) {}}
	err := p.Do(func() error {
		calls++
		return fmt.Errorf("write: %w", syscall.ENOSPC)
	}, nil)
	if !errors.Is(err, syscall.ENOSPC) || calls != 1 {
		t.Errorf("err=%v calls=%d, want ENOSPC after exactly 1 call", err, calls)
	}
}

func TestRetryExhaustsAttempts(t *testing.T) {
	calls := 0
	var slept []time.Duration
	p := RetryPolicy{MaxAttempts: 3, BaseDelay: 4 * time.Millisecond, MaxDelay: 6 * time.Millisecond,
		Sleep: func(d time.Duration) { slept = append(slept, d) }}
	err := p.Do(func() error { calls++; return syscall.EIO }, nil)
	if !errors.Is(err, syscall.EIO) || calls != 3 {
		t.Errorf("err=%v calls=%d, want EIO after 3 calls", err, calls)
	}
	if len(slept) != 2 {
		t.Fatalf("slept %d times, want 2", len(slept))
	}
	// Full jitter: each sleep is in (0, delay], delay doubling but capped.
	if slept[0] <= 0 || slept[0] > 4*time.Millisecond {
		t.Errorf("first backoff %v outside (0, 4ms]", slept[0])
	}
	if slept[1] <= 0 || slept[1] > 6*time.Millisecond {
		t.Errorf("second backoff %v outside (0, 6ms] (cap)", slept[1])
	}
}

func TestProfileDeterministicForSeed(t *testing.T) {
	run := func(seed int64) []bool {
		p := NewProfile(seed)
		p.Add(OpWALWrite, FaultRule{Prob: 0.5, Err: syscall.EIO})
		out := make([]bool, 64)
		for i := range out {
			out[i] = p.Fault(OpWALWrite).Err != nil
		}
		return out
	}
	a, b := run(42), run(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
	hits := 0
	for _, v := range a {
		if v {
			hits++
		}
	}
	if hits == 0 || hits == len(a) {
		t.Errorf("prob 0.5 fired %d/%d times; expected a mix", hits, len(a))
	}
}

func TestProfileAllAndPartial(t *testing.T) {
	p := NewProfile(1)
	p.Add(OpAll, FaultRule{Prob: 1, Err: syscall.EIO, Partial: true})
	for _, op := range []Op{OpWALWrite, OpSnapshotSync} {
		f := p.Fault(op)
		if f.Err == nil {
			t.Fatalf("OpAll rule did not fire on %s", op)
		}
		if f.PartialFraction <= 0 || f.PartialFraction >= 1 {
			t.Errorf("%s: partial fraction %v outside (0,1)", op, f.PartialFraction)
		}
	}
}

func TestToggleGates(t *testing.T) {
	p := NewProfile(7)
	p.Add(OpWALWrite, FaultRule{Prob: 1, Err: syscall.EIO})
	tg := NewToggle(p)
	if tg.Fault(OpWALWrite).Err != nil {
		t.Fatal("disabled toggle injected")
	}
	tg.Set(true)
	if tg.Fault(OpWALWrite).Err == nil {
		t.Fatal("enabled toggle did not inject")
	}
	tg.Set(false)
	if tg.Fault(OpWALWrite).Err != nil {
		t.Fatal("re-disabled toggle injected")
	}
}

func TestParseProfile(t *testing.T) {
	p, err := ParseProfile("wal_write:eio:1,wal_sync:latency:1:3ms,snapshot_write:enospc:1,all:partial:0", 9)
	if err != nil {
		t.Fatal(err)
	}
	if f := p.Fault(OpWALWrite); !errors.Is(f.Err, syscall.EIO) {
		t.Errorf("wal_write fault = %+v, want EIO", f)
	}
	if f := p.Fault(OpWALSync); f.Err != nil || f.Delay != 3*time.Millisecond {
		t.Errorf("wal_sync fault = %+v, want 3ms latency only", f)
	}
	if f := p.Fault(OpSnapshotWrite); !errors.Is(f.Err, syscall.ENOSPC) {
		t.Errorf("snapshot_write fault = %+v, want ENOSPC", f)
	}

	for _, bad := range []string{
		"nope:eio:1",           // unknown op
		"wal_write:boom:1",     // unknown kind
		"wal_write:eio:2",      // probability out of range
		"wal_write:eio",        // missing probability
		"wal_sync:latency:1",   // latency without duration
		"wal_sync:latency:1:x", // unparseable duration
	} {
		if _, err := ParseProfile(bad, 0); err == nil {
			t.Errorf("ParseProfile(%q) accepted", bad)
		}
	}

	// Empty rules (trailing commas, empty string) are tolerated.
	if _, err := ParseProfile("", 0); err != nil {
		t.Errorf("empty spec rejected: %v", err)
	}
}
