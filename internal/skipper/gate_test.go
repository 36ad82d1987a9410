// Differential suites over the one gate table (experiments.GateTable):
// each feature — shared cache, async pipeline, retryable faults, device
// fleets, tracing — is a set of rows pairing a baseline scenario with a
// variant that must return byte-identical results, pass
// RunResult.Check, and show the work it turns on. Every row runs across
// the mem/v1/v2 wire formats, both engines and DOP 1/4, over a small
// dataset so CI's -race job exercises the concurrent paths (shared
// cache, decode workers, span recording) on every combination.
// External test package: the workload/objstore/experiments helpers
// import skipper themselves.
package skipper_test

import (
	"fmt"
	"testing"

	"repro/internal/experiments"
	"repro/internal/objstore"
	"repro/internal/segment"
	"repro/internal/skipper"
	"repro/internal/workload"
)

// quick are the harness params: among others, a 6-object MJoin cache —
// the minimum for the 6-relation probe, so eviction pressure is on.
var quick = experiments.Quick()

// sharedDataset builds one date-clustered TPC-H dataset served to every
// tenant, re-encoded in the given wire format.
func sharedDataset(t *testing.T, f segment.Format) *workload.Dataset {
	t.Helper()
	ds := workload.TPCH(0, workload.TPCHConfig{SF: 4, RowsPerObject: 4, Seed: 1, ClusteredDates: true})
	ds, err := objstore.ReencodeDataset(ds, f)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// build returns the scenario's cluster over ds, not yet run.
func build(t *testing.T, ds *workload.Dataset, sc experiments.Scenario) *skipper.Cluster {
	t.Helper()
	cl, err := quick.Cluster(ds, sc)
	if err != nil {
		t.Fatal(err)
	}
	return cl
}

// mustRun runs the cluster and requires it to succeed and pass Check.
func mustRun(t *testing.T, cl *skipper.Cluster) *skipper.RunResult {
	t.Helper()
	res, err := cl.Run()
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Check(); err != nil {
		t.Fatal(err)
	}
	return res
}

// runGateTable runs every row of the named gate in one subtest per
// format, engine and DOP.
func runGateTable(t *testing.T, gate string) {
	for _, f := range experiments.GateFormats {
		ds := sharedDataset(t, f)
		for _, mode := range experiments.GateModes {
			for _, dop := range experiments.GateDOPs {
				t.Run(fmt.Sprintf("%v/%v/dop%d", f, mode, dop), func(t *testing.T) {
					for _, row := range quick.GateTable() {
						if row.Gate != gate {
							continue
						}
						t.Run(row.Name, func(t *testing.T) {
							if err := quick.RunGate(ds, row.At(mode, dop)); err != nil {
								t.Fatal(err)
							}
						})
					}
				})
			}
		}
	}
}

func TestSharedCacheDifferential(t *testing.T) { runGateTable(t, "cache") }
func TestPipelineDifferential(t *testing.T)    { runGateTable(t, "pipeline") }
func TestChaosDifferential(t *testing.T)       { runGateTable(t, "faults") }
func TestFleetDifferential(t *testing.T)       { runGateTable(t, "scale") }
func TestTracingDifferential(t *testing.T)     { runGateTable(t, "trace") }

// TestPipelineWithSharedCache runs the pipeline-over-shared-cache row at
// DOP 2: prefetched deliveries are admitted to the cache, and later
// demand GETs hit there.
func TestPipelineWithSharedCache(t *testing.T) {
	ds := sharedDataset(t, segment.FormatV2)
	var row experiments.GateRow
	for _, r := range quick.GateTable() {
		if r.Gate == "pipeline" && r.Name == "cache" {
			row = r
		}
	}
	if row.Gate == "" {
		t.Fatal("gate table has no pipeline-over-cache row")
	}
	for _, mode := range experiments.GateModes {
		t.Run(mode.String(), func(t *testing.T) {
			if err := quick.RunGate(ds, row.At(mode, 2)); err != nil {
				t.Fatal(err)
			}
		})
	}
}
