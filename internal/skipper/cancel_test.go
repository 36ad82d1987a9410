// Context-cancellation suite: the serving layer threads per-query
// deadlines into client runs via skipper.Client.Ctx, so a canceled or
// deadline-expired workload must abort with an error wrapping the
// context's error and drain exactly like the fail-stop paths — no
// deadlock, no leaked goroutines, no orphaned cache pins. Runs under
// CI's -race job.
package skipper_test

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/segcache"
	"repro/internal/segment"
	"repro/internal/skipper"
)

// runCanceled executes the repeated-query workload with every client
// bound to ctx, with the full pipeline (prefetch + decode workers) and a
// shared cache so every drain path is armed.
func runCanceled(t *testing.T, ctx context.Context, mode skipper.Mode) (*skipper.RunResult, *segcache.Cache, error) {
	t.Helper()
	cl := build(t, sharedDataset(t, segment.FormatV2), experiments.Scenario{
		Mode: mode, Prune: true, SharedCache: experiments.WholeDataset, Pipeline: pipelineOn(),
	})
	for _, c := range cl.Clients {
		c.Ctx = ctx
	}
	res, err := cl.Run()
	return res, cl.SharedCache, err
}

// TestClientContextExpiredDrains: a context that is already expired
// when the run starts must abort before any query executes, with an
// error wrapping context.DeadlineExceeded, and leave no goroutines or
// cache pins behind despite the armed prefetcher and decode pool.
func TestClientContextExpiredDrains(t *testing.T) {
	for _, mode := range []skipper.Mode{skipper.ModeVanilla, skipper.ModeSkipper} {
		t.Run(fmt.Sprint(mode), func(t *testing.T) {
			baseline := runtime.NumGoroutine()
			ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
			defer cancel()
			_, shared, err := runCanceled(t, ctx, mode)
			if err == nil {
				t.Fatal("expired context did not abort the run")
			}
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("error %v does not wrap context.DeadlineExceeded", err)
			}
			if st := shared.Stats(); st.PinnedBytes != 0 {
				t.Fatalf("aborted run left %d bytes pinned in the cache", st.PinnedBytes)
			}
			requireGoroutinesSettle(t, baseline)
		})
	}
}

// TestClientContextCancelMidRunDrains cancels the context from a timer
// racing the workload. Whether the cancel lands before, during or after
// the run, the invariants hold: an error, if any, wraps
// context.Canceled; results, if any, are complete per query; and the
// drain leaves no goroutines or cache pins.
func TestClientContextCancelMidRunDrains(t *testing.T) {
	for _, delay := range []time.Duration{0, 500 * time.Microsecond, 5 * time.Millisecond} {
		t.Run(fmt.Sprint(delay), func(t *testing.T) {
			baseline := runtime.NumGoroutine()
			ctx, cancel := context.WithCancel(context.Background())
			timer := time.AfterFunc(delay, cancel)
			defer timer.Stop()
			defer cancel()
			res, shared, err := runCanceled(t, ctx, skipper.ModeSkipper)
			if err != nil && !errors.Is(err, context.Canceled) {
				t.Fatalf("error %v does not wrap context.Canceled", err)
			}
			if err == nil {
				if err := res.Check(); err != nil {
					t.Fatal(err)
				}
			}
			if st := shared.Stats(); st.PinnedBytes != 0 {
				t.Fatalf("canceled run left %d bytes pinned in the cache", st.PinnedBytes)
			}
			requireGoroutinesSettle(t, baseline)
		})
	}
}

// TestClientNilContextUnchanged pins the default: clients without a Ctx
// run to completion exactly as before the field existed.
func TestClientNilContextUnchanged(t *testing.T) {
	res, _, err := runCanceled(t, nil, skipper.ModeSkipper)
	if err != nil {
		t.Fatalf("nil-context run failed: %v", err)
	}
	if err := res.Check(); err != nil {
		t.Fatal(err)
	}
	for _, cs := range res.Clients {
		if got := len(cs.PerQuery); got != 4 {
			t.Fatalf("tenant %d: nil-context run executed %d of 4 queries", cs.Tenant, got)
		}
	}
}
