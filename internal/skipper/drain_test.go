// Targeted paths the gate table cannot reach: runs that fail-stop, runs
// that finish with prefetches still in flight, a client's private cache
// overriding the shared one, and a scheduler breaking its contract. A
// run that ends — cleanly or not — must drain: no deadlock, no leaked
// goroutines, no orphaned cache pins. Every cluster comes from the
// scenario builder, with one extra field set before Run.
package skipper_test

import (
	"errors"
	"runtime"
	"testing"
	"time"

	"repro/internal/csd"
	"repro/internal/experiments"
	"repro/internal/segcache"
	"repro/internal/segment"
	"repro/internal/skipper"
)

// pipelineOn is the targeted tests' pipeline: room for two 1 GB objects
// in flight, two decode workers.
func pipelineOn() *skipper.PipelineConfig {
	return &skipper.PipelineConfig{PrefetchBytes: 2e9, DecodeWorkers: 2, DecodeAhead: 2}
}

// requireGoroutinesSettle waits for the goroutine count to return to
// (at most) the recorded baseline, tolerating runtime bookkeeping
// noise; decode workers and any stray pipeline helpers must be gone.
func requireGoroutinesSettle(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC() // nudge finalizer-driven cleanups
		n := runtime.NumGoroutine()
		if n <= baseline+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			buf = buf[:runtime.Stack(buf, true)]
			t.Fatalf("goroutines did not settle: %d > baseline %d\n%s", n, baseline, buf)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// contractBreaker is a Scheduler that violates NextGroup's contract on
// its first consultation.
type contractBreaker struct{}

func (contractBreaker) Name() string { return "contract-breaker" }
func (contractBreaker) NextGroup(int, map[int][]*csd.Request, func(string) int) int {
	return -1
}

// requireContractError requires err to carry the contract breaker's
// typed SchedulerContractError.
func requireContractError(t *testing.T, err error) {
	t.Helper()
	if err == nil {
		t.Fatal("misbehaving scheduler did not fail the run")
	}
	var sce *csd.SchedulerContractError
	if !errors.As(err, &sce) {
		t.Fatalf("error %v is not a SchedulerContractError", err)
	}
	if sce.Returned != -1 || sce.Scheduler != "contract-breaker" {
		t.Fatalf("error fields %+v", sce)
	}
}

// TestClusterSurfacesSchedulerContractError pins end-to-end propagation
// of the device's typed scheduler error: through the proxy, the engines
// (both modes) and Cluster.Run.
func TestClusterSurfacesSchedulerContractError(t *testing.T) {
	ds := sharedDataset(t, segment.FormatMem)
	for _, mode := range experiments.GateModes {
		cl := build(t, ds, experiments.Scenario{Mode: mode})
		cl.CSD.Scheduler = contractBreaker{}
		_, err := cl.Run()
		requireContractError(t, err)
	}
}

// TestPipelineFailStopDrains: a run that fail-stops on a scheduler
// contract violation with prefetches in flight must still terminate —
// the device's fail-stop answers every pending and future GET with the
// error, the prefetcher quiesces, and no goroutines or cache pins leak.
func TestPipelineFailStopDrains(t *testing.T) {
	ds := sharedDataset(t, segment.FormatV2)
	for _, mode := range experiments.GateModes {
		t.Run(mode.String(), func(t *testing.T) {
			baseline := runtime.NumGoroutine()
			cl := build(t, ds, experiments.Scenario{Mode: mode, SharedCache: experiments.WholeDataset, Pipeline: pipelineOn()})
			cl.CSD.Scheduler = contractBreaker{}
			_, err := cl.Run()
			requireContractError(t, err)
			if st := cl.SharedCache.Stats(); st.PinnedBytes != 0 {
				t.Fatalf("aborted run left %d bytes pinned in the cache", st.PinnedBytes)
			}
			requireGoroutinesSettle(t, baseline)
		})
	}
}

// TestPipelineCompletionDrains: a run that finishes normally with a
// generous prefetch budget (so prefetches for the final query may still
// be in flight when the client finishes) must drain its prefetcher and
// decode pools without leaking goroutines.
func TestPipelineCompletionDrains(t *testing.T) {
	baseline := runtime.NumGoroutine()
	ds := sharedDataset(t, segment.FormatV2)
	pc := &skipper.PipelineConfig{PrefetchBytes: 64e9, DecodeWorkers: 4, DecodeAhead: 4}
	res := mustRun(t, build(t, ds, experiments.Scenario{Mode: skipper.ModeSkipper, DOP: 2, Prune: true, Pipeline: pc}))
	issued := 0
	for _, cs := range res.Clients {
		issued += cs.PrefetchIssued
	}
	if issued == 0 {
		t.Fatal("no prefetches issued under a 64 GB budget")
	}
	if res.Wall <= 0 {
		t.Fatal("cluster run recorded no wall-clock time")
	}
	requireGoroutinesSettle(t, baseline)
}

// TestPerClientCacheOverridesShared checks the private-cache opt-out:
// clients with their own SegCache must not touch the cluster's shared
// one.
func TestPerClientCacheOverridesShared(t *testing.T) {
	ds := sharedDataset(t, segment.FormatMem)
	cl := build(t, ds, experiments.Scenario{Mode: skipper.ModeSkipper, SharedCache: experiments.WholeDataset})
	private := segcache.NewObjects(len(ds.Catalog.AllObjects()))
	for _, c := range cl.Clients {
		c.SegCache = private
	}
	res := mustRun(t, cl)
	if st := cl.SharedCache.Stats(); st.Hits+st.Misses != 0 {
		t.Fatalf("shared cache saw traffic despite private override: %+v", st)
	}
	if st := private.Stats(); st.Hits == 0 {
		t.Fatalf("private cache unused: %+v", st)
	}
	if res.Clients[0].CacheHits == 0 {
		t.Fatal("client recorded no hits")
	}
}
