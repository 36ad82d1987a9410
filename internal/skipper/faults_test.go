// Fault paths beyond the chaos rows of the gate table: crash windows a
// run must survive (restart, or failover to a replica) with results
// identical to the clean run and GET conservation intact — refused GETs
// included — and faults that must surface as typed errors instead
// (permanent crash without a replica, retry exhaustion, cancellation
// during backoff). Runs under CI's -race job.
package skipper_test

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/csd"
	"repro/internal/experiments"
	"repro/internal/faults"
	"repro/internal/layout"
	"repro/internal/segment"
	"repro/internal/skipper"
)

// permanentCrash kills device 0 at 15 s of simulated time for good.
var permanentCrash = faults.Plan{Seed: 7, CrashAt: 15 * time.Second}

// transientStorm fails every transfer, forever: it can only end in
// retry exhaustion or cancellation.
var transientStorm = faults.Plan{Seed: 3, TransientRate: 1.0, MaxFaultsPerObject: -1}

// requireDeviceDown requires err to carry a permanent DeviceDownError.
func requireDeviceDown(t *testing.T, err error) {
	t.Helper()
	if err == nil {
		t.Fatal("run over a permanently crashed device succeeded")
	}
	var de *csd.DeviceDownError
	if !errors.As(err, &de) {
		t.Fatalf("error %v does not carry a DeviceDownError", err)
	}
	if de.Restarting {
		t.Fatal("permanent crash reported Restarting=true")
	}
	if !skipper.IsFaultError(err) {
		t.Fatalf("IsFaultError(%v) = false, want true", err)
	}
}

// sumClients totals one counter over a run's clients.
func sumClients(res *skipper.RunResult, f func(*skipper.ClientStats) int) int {
	n := 0
	for _, cs := range res.Clients {
		n += f(cs)
	}
	return n
}

// TestCrashRestartSurvived: a crash window in the middle of the run
// with a scheduled restart must be survived by both engines — refused
// and failed GETs are retried with backoff until the device returns,
// results still match the clean run, and Check balances the refusals.
func TestCrashRestartSurvived(t *testing.T) {
	ds := sharedDataset(t, segment.FormatV2)
	for _, mode := range experiments.GateModes {
		for _, pipe := range []bool{false, true} {
			t.Run(fmt.Sprintf("%v/pipe=%v", mode, pipe), func(t *testing.T) {
				sc := experiments.Scenario{Mode: mode, Prune: true, SharedCache: experiments.WholeDataset}
				if pipe {
					sc.Pipeline = pipelineOn()
				}
				clean := mustRun(t, build(t, ds, sc))
				// Backoff sums must be able to outlast the downtime; unlimited
				// budget because a crash fails every outstanding object at once.
				sc.Faults = faults.Plan{Seed: 7, CrashAt: 15 * time.Second, CrashDowntime: 20 * time.Second}
				sc.Retry = &skipper.RetryPolicy{MaxAttempts: 40, BaseBackoff: 500 * time.Millisecond, MaxBackoff: 8 * time.Second, Budget: -1}
				crashed := mustRun(t, build(t, ds, sc))
				if crashed.CSD.Crashes != 1 || crashed.CSD.Restarts != 1 {
					t.Fatalf("crashes=%d restarts=%d, want 1/1", crashed.CSD.Crashes, crashed.CSD.Restarts)
				}
				if sumClients(crashed, func(cs *skipper.ClientStats) int { return cs.Retries }) == 0 {
					t.Fatal("crash window survived without a single retry — schedule missed the run")
				}
				if err := skipper.SameResults(crashed, clean); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestPermanentCrashTyped: a crash with no restart is not retryable —
// the run must fail promptly with the typed DeviceDownError (wrapped in
// the query error chain), not burn the retry policy against a dead box.
func TestPermanentCrashTyped(t *testing.T) {
	ds := sharedDataset(t, segment.FormatV2)
	_, err := build(t, ds, experiments.Scenario{Mode: skipper.ModeSkipper, Faults: permanentCrash}).Run()
	requireDeviceDown(t, err)
}

// TestCancelDuringRetryBackoff: a context that expires while the proxy
// is in fault recovery (an endless transient storm keeps it in the
// backoff loop) must abort the run with the context error, drain the
// pipeline machinery and leave no cache pins or goroutines behind.
func TestCancelDuringRetryBackoff(t *testing.T) {
	ds := sharedDataset(t, segment.FormatV2)
	// Without cancellation this storm can only end in retry exhaustion,
	// so an unlimited policy pins the run inside the recovery loop until
	// the deadline fires.
	retry := &skipper.RetryPolicy{MaxAttempts: 1 << 20, BaseBackoff: 250 * time.Millisecond, MaxBackoff: 8 * time.Second, Budget: -1}
	for _, mode := range experiments.GateModes {
		t.Run(fmt.Sprint(mode), func(t *testing.T) {
			baseline := runtime.NumGoroutine()
			ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
			defer cancel()
			cl := build(t, ds, experiments.Scenario{Mode: mode, SharedCache: experiments.WholeDataset,
				Pipeline: pipelineOn(), Faults: transientStorm, Retry: retry})
			for _, c := range cl.Clients {
				c.Ctx = ctx
			}
			_, err := cl.Run()
			if err == nil {
				t.Fatal("canceled retry storm completed successfully")
			}
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("error %v does not wrap context.DeadlineExceeded", err)
			}
			if st := cl.SharedCache.Stats(); st.PinnedBytes != 0 {
				t.Fatalf("aborted run left %d bytes pinned", st.PinnedBytes)
			}
			requireGoroutinesSettle(t, baseline)
		})
	}
}

// TestRetryExhaustionTyped: when the per-object fault cap exceeds what
// the policy will spend, the query must fail with RetryExhaustedError —
// carrying the object and attempt count — rather than loop forever.
func TestRetryExhaustionTyped(t *testing.T) {
	ds := sharedDataset(t, segment.FormatV2)
	retry := &skipper.RetryPolicy{MaxAttempts: 3, BaseBackoff: time.Millisecond, MaxBackoff: time.Millisecond, Budget: -1}
	_, err := build(t, ds, experiments.Scenario{Mode: skipper.ModeSkipper, Faults: transientStorm, Retry: retry}).Run()
	if err == nil {
		t.Fatal("unrecoverable transient storm completed successfully")
	}
	var re *skipper.RetryExhaustedError
	if !errors.As(err, &re) {
		t.Fatalf("error %v does not carry a RetryExhaustedError", err)
	}
	if re.Attempts != retry.MaxAttempts {
		t.Fatalf("exhausted after %d attempts, policy allows %d", re.Attempts, retry.MaxAttempts)
	}
	var te *csd.TransientError
	if !errors.As(err, &te) {
		t.Fatalf("exhaustion error %v does not wrap the last TransientError", err)
	}
	if !skipper.IsFaultError(err) {
		t.Fatalf("IsFaultError(%v) = false, want true", err)
	}
}

// TestFleetFailoverUnderCrash: device 0 of a two-device fleet dies
// permanently mid-run. With the demanded working set hot-replicated,
// every query must complete with results byte-identical to the clean
// fleet: deliveries failed by the crash are re-requested from the
// replica (counted failovers on the demand path), later demand routes
// around the dead device, GETs the dead device refused still balance,
// and nothing is pinned or leaked.
func TestFleetFailoverUnderCrash(t *testing.T) {
	ds := sharedDataset(t, segment.FormatV2)
	for _, pipe := range []bool{false, true} {
		t.Run(fmt.Sprintf("pipe=%v", pipe), func(t *testing.T) {
			baseline := runtime.NumGoroutine()
			sc := experiments.Scenario{Mode: skipper.ModeSkipper, Prune: true, SharedCache: experiments.WholeDataset,
				Devices: 2, Replication: layout.Replication{Kind: layout.ReplicateHot}}
			if pipe {
				sc.Pipeline = pipelineOn()
			}
			clean := mustRun(t, build(t, ds, sc))
			sc.Faults = permanentCrash
			crashed := mustRun(t, build(t, ds, sc))
			if crashed.Devices[0].Crashes != 1 {
				t.Fatalf("device 0 crashes = %d, want 1", crashed.Devices[0].Crashes)
			}
			if crashed.Devices[1].Crashes != 0 {
				t.Fatalf("crash leaked to device 1 (%d crashes)", crashed.Devices[1].Crashes)
			}
			if err := skipper.SameResults(crashed, clean); err != nil {
				t.Fatal(err)
			}
			// Anti-vacuous, demand path only: the prefetcher recovers from a
			// dead device by silently re-routing, so counted failovers are
			// only guaranteed when every GET is a demand GET.
			if !pipe && sumClients(crashed, func(cs *skipper.ClientStats) int { return cs.Failovers }) == 0 {
				t.Fatal("fleet survived the crash without a single counted failover")
			}
			requireGoroutinesSettle(t, baseline)
		})
	}
}

// TestFleetPermanentCrashNoReplica: without replication a permanent
// device-0 crash must surface as the typed DeviceDownError — the fleet
// has no replica to fail over to, and the proxy must not burn the retry
// policy against the dead device.
func TestFleetPermanentCrashNoReplica(t *testing.T) {
	ds := sharedDataset(t, segment.FormatV2)
	_, err := build(t, ds, experiments.Scenario{Mode: skipper.ModeSkipper, Devices: 2, Faults: permanentCrash}).Run()
	requireDeviceDown(t, err)
}
