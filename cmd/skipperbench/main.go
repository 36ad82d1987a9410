// Command skipperbench regenerates any table or figure of the paper's
// evaluation on the simulated testbed.
//
// Usage:
//
//	skipperbench -fig all            # everything (slow)
//	skipperbench -fig 7              # Figure 7 only
//	skipperbench -fig table3 -quick  # reduced-scale smoke run
//	skipperbench -prune -quick       # data-skipping report (fails on divergence)
//	skipperbench -proj -quick        # projection/format report (fails on divergence)
//	skipperbench -cache -quick       # shared-cache sweep (fails on divergence)
//	skipperbench -pipeline -quick    # async-pipeline report (fails on divergence)
//	skipperbench -format v2 -fig 9   # serve columnar (v2) encoded objects
//
// Figures: table1, 2, 3, 4, 5, 7, 8, 9, table3, 10, 11a, 11b, 11c, 12,
// selectivity (the data-skipping sweep — ours, not the paper's).
//
// -prune runs the join+agg and Q5-style selective workloads on both
// engines with data skipping on and off, reports segments fetched vs
// skipped, and exits non-zero if any pair of runs diverges in its query
// results — the CI gate for the statistics subsystem.
//
// -proj runs the projective probe queries over the same dataset encoded
// in the row-major (v1) and columnar (v2) segment formats, reports bytes
// fetched vs decoded vs skipped-by-projection plus scan-side decode
// time, and exits non-zero on any result divergence — the CI gate for
// the segment format.
//
// -cache verifies byte-identical results with the shared segment cache
// on and off — across both engines, the mem/v1/v2 segment formats,
// DOP {1,4} and pruning on/off — then sweeps the cache budget over a
// repeated-query multi-tenant workload (three tenants sharing one
// dataset), reporting device GETs, group switches, coalesced transfers,
// hits and timings per budget. Exits non-zero on any divergence — the
// CI gate for the cache layer.
//
// -pipeline verifies byte-identical results with the asynchronous
// execution pipeline (scheduler-aware prefetch + concurrent decode
// workers) on and off — across both engines, the mem/v1/v2 formats,
// DOP {1,4}, pruning on/off and over the shared cache — then reports both clocks for each
// engine with the pipeline off and on: simulated makespan (prefetch
// discloses future demand to the device scheduler) and host wall-clock
// time with the decode busy/stall/hidden breakdown (decode workers
// overlap decode with compute). Exits non-zero on any divergence — the
// CI gate for the pipeline. -rows raises per-object decode work.
//
// -faults runs the fault-injection report: first the chaos gate —
// a retryable-only fault plan (transient failures, stalls, corrupt
// payloads, per-object cap) must leave results byte-identical to the
// clean run across both engines, the mem/v1/v2 formats, DOP {1,4} and
// the pipeline off/on, with GET conservation extended to retries — then a
// fault-rate sweep plus a crash/restart scenario reporting the measured
// degradation (makespan, extra device GETs, retries, backoff). Exits
// non-zero on any divergence — the CI gate for the fault layer.
//
// -scale runs the scale-out report: first the fleet gate — the
// repeated-query workload must produce byte-identical results on 1, 2
// and 4 devices with and without replication (hot/full) across both
// engines, the mem/v1/v2 formats and DOP {1,4}, with GET conservation
// held per device — then measures the makespan at each fleet size and under
// a device-0 crash, with hot replication required to fail over (zero
// failed queries when the device never restarts) and to degrade
// strictly less than the unreplicated fleet. Exits non-zero on any
// divergence — the CI gate for the fleet layer.
//
// All four gates are rows of one table (experiments.GateTable); every
// run they make must also pass skipper.RunResult.Check.
//
// -format selects the wire format the CSD store serves for figure runs:
// mem (in-memory segments, no decode work — the default), v1, or v2.
// Simulated timings are format-independent; real runtime and the byte
// accounting are not.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"

	"repro/internal/experiments"
	"repro/internal/segment"
	"repro/internal/skipper"
	"repro/internal/trace"
	"repro/internal/workload"
)

func main() {
	figArg := flag.String("fig", "all", "comma-separated figure ids (table1,2,3,4,5,7,8,9,table3,10,11a,11b,11c,12) or 'all'")
	quick := flag.Bool("quick", false, "use the reduced-scale configuration")
	sf := flag.Int("sf", 0, "override TPC-H scale factor")
	dop := flag.Int("dop", 0, "per-client query-execution parallelism (0 = number of CPUs, 1 = serial)")
	outFmt := flag.String("out", "table", "output format: table or csv")
	showTrace := flag.Bool("trace", false, "run a small 3-client scenario and print its event trace instead of figures")
	prune := flag.Bool("prune", false, "run the data-skipping report (segments fetched vs skipped, on/off, both engines) and exit non-zero on result divergence")
	proj := flag.Bool("proj", false, "run the projection/format report (v1 vs v2 decode bytes and time) and exit non-zero on result divergence")
	cacheSweep := flag.Bool("cache", false, "run the shared segment cache sweep (budgets × repeated-query multi-tenant workload) and exit non-zero on any cache-on/off result divergence")
	pipeline := flag.Bool("pipeline", false, "run the async-pipeline report (prefetch + decode workers, on/off, both engines; simulated and wall-clock time) and exit non-zero on any result divergence")
	faultsReport := flag.Bool("faults", false, "run the fault-injection report (chaos gate: clean vs faulted byte-identical results; then a fault-rate sweep plus crash/restart with measured degradation) and exit non-zero on any divergence")
	scaleReport := flag.Bool("scale", false, "run the scale-out report (gate: byte-identical results on 1/2/4 devices with and without replication; then fleet makespans plus device-0 crash scenarios with failover) and exit non-zero on any divergence")
	rows := flag.Int("rows", 0, "override rows per 1 GB object (more rows = more decode work per object)")
	segFormat := flag.String("format", "mem", "segment wire format served by the CSD store: mem, v1 or v2")
	flag.Parse()

	if *showTrace {
		runTraceDemo()
		return
	}

	p := experiments.Default()
	if *quick {
		p = experiments.Quick()
	}
	if *sf > 0 {
		p.SF = *sf
	}
	if *rows > 0 {
		p.RowsPerObject = *rows
	}
	p.Parallelism = *dop
	if p.Parallelism <= 0 {
		p.Parallelism = runtime.NumCPU()
	}
	wireFmt, err := segment.ParseFormat(*segFormat)
	if err != nil {
		fmt.Fprintf(os.Stderr, "skipperbench: %v\n", err)
		os.Exit(2)
	}
	p.Format = wireFmt

	emit := func(f *experiments.Figure) {
		if *outFmt == "csv" {
			fmt.Printf("# %s: %s\n%s\n", f.ID, f.Title, f.CSV())
		} else {
			fmt.Println(f)
		}
	}
	// The reports double as CI gates: each fails on any result divergence.
	reports := []struct {
		on   bool
		name string
		run  func() (*experiments.Figure, error)
	}{
		{*prune, "prune report", p.PruneReport},
		{*proj, "projection report", p.ProjectionReport},
		{*cacheSweep, "cache report", p.CacheReport},
		{*pipeline, "pipeline report", p.PipelineReport},
		{*faultsReport, "fault report", p.FaultReport},
		{*scaleReport, "scale report", p.ScaleReport},
	}
	for _, r := range reports {
		if !r.on {
			continue
		}
		f, err := r.run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "skipperbench: %s: %v\n", r.name, err)
			os.Exit(1)
		}
		emit(f)
		return
	}

	type gen func() (*experiments.Figure, error)
	static := func(f *experiments.Figure) gen {
		return func() (*experiments.Figure, error) { return f, nil }
	}
	all := []struct {
		id string
		fn gen
	}{
		{"table1", static(experiments.Table1())},
		{"2", static(experiments.Figure2())},
		{"3", static(experiments.Figure3())},
		{"4", p.Figure4},
		{"5", p.Figure5},
		{"7", p.Figure7},
		{"8", p.Figure8},
		{"9", p.Figure9},
		{"table3", p.Table3},
		{"10", p.Figure10},
		{"11a", p.Figure11a},
		{"11b", p.Figure11b},
		{"11c", p.Figure11c},
		{"12", p.Figure12},
		{"selectivity", p.FigureSelectivity},
	}

	want := map[string]bool{}
	runAll := *figArg == "all"
	for _, id := range strings.Split(*figArg, ",") {
		want[strings.TrimSpace(strings.ToLower(id))] = true
	}

	matched := false
	for _, e := range all {
		if !runAll && !want[e.id] {
			continue
		}
		matched = true
		f, err := e.fn()
		if err != nil {
			fmt.Fprintf(os.Stderr, "skipperbench: %s: %v\n", e.id, err)
			os.Exit(1)
		}
		emit(f)
	}
	if !matched {
		fmt.Fprintf(os.Stderr, "skipperbench: no figure matched %q\n", *figArg)
		os.Exit(2)
	}
}

// runTraceDemo executes a 3-client Skipper run and prints the structured
// event log: who requested what, when the device switched groups, and
// when each query span completed.
func runTraceDemo() {
	log := &trace.Log{}
	store := make(map[segment.ObjectID]*segment.Segment)
	var clients []*skipper.Client
	for t := 0; t < 3; t++ {
		ds := workload.TPCH(t, workload.TPCHConfig{SF: 3, RowsPerObject: 6, Seed: 1})
		ds.MergeInto(store)
		clients = append(clients, &skipper.Client{
			Tenant: t, Mode: skipper.ModeSkipper, Catalog: ds.Catalog,
			Queries:      []skipper.QuerySpec{workload.Q12(ds.Catalog)},
			CacheObjects: 8,
		})
	}
	res, err := (&skipper.Cluster{Clients: clients, Store: store, Events: log}).Run()
	if err != nil {
		fmt.Fprintf(os.Stderr, "skipperbench: trace demo: %v\n", err)
		os.Exit(1)
	}
	log.Render(os.Stdout)
	fmt.Println()
	fmt.Print(log.Summary())
	fmt.Printf("\nmakespan %.1fs, %d switches\n", res.Makespan.Seconds(), res.CSD.GroupSwitches)
}
