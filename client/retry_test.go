package client

import (
	"context"
	"errors"
	"testing"
)

// TestWaitRetryLargeAttemptCount: WaitJob counts its backoff attempts
// without bound, and a floor doubled by shifting once overflowed into a
// negative duration past ~32 attempts and panicked the jitter draw. The
// floor stops at the cap, so attempt 70 computes a wait like any other;
// the cancelled context then ends it at once.
func TestWaitRetryLargeAttemptCount(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, attempt := range []int{0, 1, 32, 63, 64, 70} {
		if err := waitRetry(ctx, attempt, 0); !errors.Is(err, context.Canceled) {
			t.Fatalf("attempt %d: %v, want context.Canceled", attempt, err)
		}
	}
}
