package experiments

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/csd"
	"repro/internal/faults"
	"repro/internal/layout"
	"repro/internal/objstore"
	"repro/internal/segcache"
	"repro/internal/segment"
	"repro/internal/skipper"
	"repro/internal/trace"
	"repro/internal/tuple"
	"repro/internal/workload"
)

// This file is the one harness behind every divergence gate: a Scenario
// names one configuration of the repeated-query multi-tenant workload,
// Params.Cluster builds it, and the gate table pairs a baseline Scenario
// with a variant that must return byte-identical results. `skipperbench
// -cache/-pipeline/-faults/-scale` and the skipper package's
// differential tests run rows of the same table.

// The repeated-query multi-tenant workload: scenarioClients tenants each
// run scenarioPasses rounds of the probe pair (workload.MultiPass) over
// one shared dataset laid out round-robin across scenarioGroups disk
// groups — the adversarial no-locality placement, so group switches are
// at stake, and both intra-tenant reuse (later passes) and cross-tenant
// reuse (other clients' fetches) are on the table.
const (
	scenarioClients = 3
	scenarioPasses  = 2
	scenarioGroups  = 4
)

// WholeDataset as Scenario.SharedCache sizes the shared segment cache to
// the dataset's full footprint.
const WholeDataset = -1

// Scenario is one configuration of the repeated-query workload.
type Scenario struct {
	Mode skipper.Mode
	// DOP is every client's query-execution parallelism.
	DOP int
	// Prune turns zone-map/Bloom data skipping on.
	Prune bool
	// SharedCache is the cluster-wide segment cache budget in objects:
	// 0 runs without one, WholeDataset fits the dataset.
	SharedCache int
	// Pipeline, when non-nil, is every client's async pipeline.
	Pipeline *skipper.PipelineConfig
	// Faults is device 0's fault plan (zero = clean); confining it to one
	// device leaves a replicated fleet a live side to fail over to.
	Faults faults.Plan
	// Retry, when non-nil, overrides every client's retry policy
	// (nil = skipper.DefaultRetryPolicy).
	Retry *skipper.RetryPolicy
	// Devices is the fleet size; 0 or 1 runs the classic single device.
	Devices     int
	Replication layout.Replication
	// Trace records a span tree per client (Client.QTrace).
	Trace bool
}

// devices resolves the fleet size.
func (sc Scenario) devices() int { return max(sc.Devices, 1) }

// Cluster builds the scenario's cluster over ds without running it, so a
// caller may set one more field (a device Scheduler, a client Ctx)
// before Run. Every client keeps its results.
func (p Params) Cluster(ds *workload.Dataset, sc Scenario) (*skipper.Cluster, error) {
	store := make(mapStore)
	ds.MergeInto(store)
	prune := sc.Prune
	clients := make([]*skipper.Client, scenarioClients)
	for t := range clients {
		clients[t] = &skipper.Client{
			Tenant:       t,
			Mode:         sc.Mode,
			Catalog:      ds.Catalog,
			Queries:      workload.MultiPass(ds.Catalog, scenarioPasses),
			CacheObjects: p.CacheObjects,
			StatsPruning: &prune,
			Parallelism:  sc.DOP,
			KeepResults:  true,
			Pipeline:     sc.Pipeline,
			Retry:        sc.Retry,
		}
		if sc.Trace {
			clients[t].QTrace = trace.NewQueryTrace(fmt.Sprintf("t%d", t), t, "")
		}
	}
	cl := &skipper.Cluster{
		Clients:     clients,
		Layout:      layout.RoundRobinObjects{NumGroups: scenarioGroups},
		Store:       store,
		Replication: sc.Replication,
	}
	switch budget := sc.SharedCache; {
	case budget == WholeDataset:
		cl.SharedCache = segcache.NewObjects(len(ds.Catalog.AllObjects()))
	case budget > 0:
		cl.SharedCache = segcache.NewObjects(budget)
	}
	cfgs := make([]csd.Config, sc.devices())
	for d := range cfgs {
		cfgs[d] = csd.DefaultConfig()
		cfgs[d].GroupSwitch = p.GroupSwitch
		cfgs[d].Bandwidth = p.Bandwidth
	}
	if sc.Faults.Enabled() {
		inj, err := faults.New(sc.Faults)
		if err != nil {
			return nil, err
		}
		cfgs[0].Faults = inj
	}
	if len(cfgs) == 1 {
		cl.CSD = cfgs[0]
	} else {
		cl.Devices = cfgs
	}
	return cl, nil
}

// runScenario builds and runs the scenario, then checks the run's
// invariants (RunResult.Check).
func (p Params) runScenario(ds *workload.Dataset, sc Scenario) (*skipper.RunResult, *skipper.Cluster, error) {
	cl, err := p.Cluster(ds, sc)
	if err != nil {
		return nil, nil, err
	}
	res, err := cl.Run()
	if err != nil {
		return nil, nil, err
	}
	if err := res.Check(); err != nil {
		return nil, nil, err
	}
	return res, cl, nil
}

// GateRow is one row of the divergence gate: the variant must return
// exactly the baseline's rows.
type GateRow struct {
	// Gate names the skipperbench gate the row belongs to.
	Gate string
	Name string
	Base Scenario
	// Variant differs from Base in the feature under test.
	Variant Scenario
}

// At returns the row with both scenarios set to the engine and DOP.
func (r GateRow) At(mode skipper.Mode, dop int) GateRow {
	r.Base.Mode, r.Base.DOP = mode, dop
	r.Variant.Mode, r.Variant.DOP = mode, dop
	return r
}

// The gate crosses every row with these wire formats, engines and DOPs.
var (
	GateFormats = []segment.Format{segment.FormatMem, segment.FormatV1, segment.FormatV2}
	GateModes   = []skipper.Mode{skipper.ModeVanilla, skipper.ModeSkipper}
	GateDOPs    = []int{1, 4}
)

// GateTable returns the gate's rows for these params. Each variant is
// its baseline plus one feature.
func (p Params) GateTable() []GateRow {
	pc := p.pipelineConfig()
	// tight leaves room for two 1 GB objects in flight, so the
	// prefetcher runs into its byte budget.
	tight := &skipper.PipelineConfig{PrefetchBytes: 2e9, DecodeWorkers: 2, DecodeAhead: 2}
	plain := Scenario{Prune: true}
	cached := Scenario{Prune: true, SharedCache: WholeDataset}
	cachedTight := Scenario{Prune: true, SharedCache: WholeDataset, Pipeline: tight}
	piped := Scenario{Prune: true, Pipeline: pc}
	// Rows over the MJoin-sized shared cache the sweeps measure put
	// evictions and pins under test too.
	small := Scenario{Prune: true, SharedCache: p.CacheObjects}
	smallPiped := Scenario{Prune: true, SharedCache: p.CacheObjects, Pipeline: pc}

	cache := func(s *Scenario) { s.SharedCache = WholeDataset }
	pipeline := func(cfg *skipper.PipelineConfig) func(*Scenario) {
		return func(s *Scenario) { s.Pipeline = cfg }
	}
	// chaos is the sweep's plan with the sweep's retry policy.
	// chaosDefault leaves every client on DefaultRetryPolicy (12
	// attempts, a 64-retry budget per query), which must ride out a
	// heavier corruption rate on its own.
	chaos := func(s *Scenario) { s.Faults, s.Retry = faultPlan(0.4), faultRetryPolicy() }
	chaosDefault := func(s *Scenario) {
		s.Faults = faults.Plan{
			Seed:               42,
			TransientRate:      0.40,
			StallRate:          0.20,
			Stall:              3 * time.Second,
			CorruptRate:        0.25,
			MaxFaultsPerObject: 3,
		}
	}
	fleet := func(n int, k layout.ReplicationKind) func(*Scenario) {
		return func(s *Scenario) { s.Devices, s.Replication = n, layout.Replication{Kind: k} }
	}
	traced := func(s *Scenario) { s.Trace = true }
	rows := []struct {
		gate, name string
		base       Scenario
		feature    func(*Scenario)
	}{
		{"cache", "prune=true", plain, cache},
		{"cache", "prune=false", Scenario{}, cache},
		{"pipeline", "prune=true", plain, pipeline(pc)},
		{"pipeline", "prune=false", Scenario{}, pipeline(pc)},
		{"pipeline", "tight prune=true", plain, pipeline(tight)},
		{"pipeline", "tight prune=false", Scenario{}, pipeline(tight)},
		{"pipeline", "cache", cached, pipeline(tight)},
		{"faults", "pipe=false", small, chaos},
		{"faults", "pipe=true", smallPiped, chaos},
		{"faults", "default-retry pipe=false", cached, chaosDefault},
		{"faults", "default-retry pipe=true", cachedTight, chaosDefault},
		{"scale", "2x none", smallPiped, fleet(2, layout.ReplicateNone)},
		{"scale", "2x hot", smallPiped, fleet(2, layout.ReplicateHot)},
		{"scale", "4x none", smallPiped, fleet(4, layout.ReplicateNone)},
		{"scale", "4x full", smallPiped, fleet(4, layout.ReplicateFull)},
		{"scale", "cached 2x none", cachedTight, fleet(2, layout.ReplicateNone)},
		{"scale", "cached 2x hot", cachedTight, fleet(2, layout.ReplicateHot)},
		{"scale", "cached 4x full", cachedTight, fleet(4, layout.ReplicateFull)},
		{"trace", "pipe=false", plain, traced},
		{"trace", "pipe=true", piped, traced},
	}
	out := make([]GateRow, len(rows))
	for i, r := range rows {
		variant := r.base
		r.feature(&variant)
		out[i] = GateRow{Gate: r.gate, Name: r.name, Base: r.base, Variant: variant}
	}
	return out
}

// RunGate runs one row over ds: both scenarios execute and pass Check,
// and the variant must match the baseline (verdict).
func (p Params) RunGate(ds *workload.Dataset, r GateRow) error {
	base, _, err := p.runScenario(ds, r.Base)
	if err != nil {
		return fmt.Errorf("baseline: %w", err)
	}
	variant, cl, err := p.runScenario(ds, r.Variant)
	if err != nil {
		return fmt.Errorf("variant: %w", err)
	}
	var traces []*trace.QueryTrace
	for _, c := range cl.Clients {
		if c.QTrace != nil {
			traces = append(traces, c.QTrace)
		}
	}
	return r.verdict(base, variant, traces)
}

// verifyGate runs every row of the named gate over the params'
// date-clustered dataset in every gate format, on both engines at every
// gate DOP.
func (p Params) verifyGate(gate string) error {
	base := p.clusteredDataset()
	for _, f := range GateFormats {
		ds, err := objstore.ReencodeDataset(base, f)
		if err != nil {
			return fmt.Errorf("format %v: %w", f, err)
		}
		for _, r := range p.GateTable() {
			if r.Gate != gate {
				continue
			}
			for _, mode := range GateModes {
				for _, dop := range GateDOPs {
					if err := p.RunGate(ds, r.At(mode, dop)); err != nil {
						return fmt.Errorf("%s gate, format %v, %s dop=%d, %s: %w", gate, f, mode, dop, r.Name, err)
					}
				}
			}
		}
	}
	return nil
}

// verdict judges a finished pair of runs: byte-identical results, each
// run showing the work its scenario turns on (and none it leaves off),
// and, with tracing on, an observer that changed nothing. traces are the
// variant's per-client span trees.
func (r GateRow) verdict(base, variant *skipper.RunResult, traces []*trace.QueryTrace) error {
	if err := skipper.SameResults(variant, base); err != nil {
		return fmt.Errorf("results diverge from the baseline: %w", err)
	}
	if err := r.Base.expect(base); err != nil {
		return fmt.Errorf("baseline: %w", err)
	}
	if err := r.Variant.expect(variant); err != nil {
		return fmt.Errorf("variant: %w", err)
	}
	if r.Variant.SharedCache != 0 && r.Base.SharedCache == 0 && variant.CSD.GetsReceived >= base.CSD.GetsReceived {
		return fmt.Errorf("cache removed no device GETs: %d with vs %d without", variant.CSD.GetsReceived, base.CSD.GetsReceived)
	}
	if !r.Variant.Trace {
		return nil
	}
	// Tracing observes; the virtual clock and device traffic must match.
	if variant.Makespan != base.Makespan || variant.CSD.GetsReceived != base.CSD.GetsReceived {
		return fmt.Errorf("tracing changed the run: makespan %v vs %v, device GETs %d vs %d",
			variant.Makespan, base.Makespan, variant.CSD.GetsReceived, base.CSD.GetsReceived)
	}
	if len(traces) != len(variant.Clients) {
		return fmt.Errorf("%d span trees for %d clients", len(traces), len(variant.Clients))
	}
	for i, qt := range traces {
		if err := checkSpanTree(qt, len(variant.Clients[i].PerQuery)); err != nil {
			return fmt.Errorf("client %d: %w", i, err)
		}
	}
	return nil
}

// expect requires a run to show the work its scenario turns on — so no
// gate passes vacuously — and none of the work it leaves off.
func (sc Scenario) expect(res *skipper.RunResult) error {
	var hits, pfIssued, pfUseful, observed, retries int
	for _, cs := range res.Clients {
		hits += cs.CacheHits
		pfIssued += cs.PrefetchIssued
		pfUseful += cs.PrefetchUseful
		observed += cs.TransientFaults + cs.CorruptDeliveries
		retries += cs.Retries
		if cs.WallElapsed <= 0 {
			return fmt.Errorf("tenant %d: no wall-clock measurement", cs.Tenant)
		}
	}
	switch {
	case sc.SharedCache == 0 && (res.Cache != nil || hits != 0):
		return fmt.Errorf("cache-off run recorded %d cache hits", hits)
	case sc.SharedCache != 0 && hits == 0:
		return errors.New("cache-on run produced no cache hits")
	case sc.SharedCache != 0 && (res.Cache == nil || int(res.Cache.Hits) != hits):
		return fmt.Errorf("shared cache stats %+v disagree with the clients' %d hits", res.Cache, hits)
	}
	switch {
	case sc.Pipeline == nil && pfIssued+pfUseful != 0:
		return fmt.Errorf("pipeline-off run prefetched %d objects", pfIssued)
	case sc.Pipeline != nil && (pfIssued == 0 || pfUseful == 0):
		return fmt.Errorf("pipeline-on run prefetched %d objects, %d of them useful", pfIssued, pfUseful)
	}
	injected := res.CSD.TransientFaults + res.CSD.CorruptDeliveries + res.CSD.Crashes
	switch {
	case !sc.Faults.Enabled() && injected+res.CSD.StalledTransfers != 0:
		return fmt.Errorf("clean run recorded %d injected faults", injected+res.CSD.StalledTransfers)
	case sc.Faults.Enabled() && injected == 0:
		return errors.New("fault plan injected nothing")
	case res.CSD.TransientFaults+res.CSD.CorruptDeliveries > 0 && observed == 0:
		return errors.New("devices injected faults no client observed")
	// Without a prefetcher every fault lands on the demand path, which
	// recovers by retrying; with one, a faulted prefetch is dropped.
	case sc.Faults.Enabled() && sc.Pipeline == nil && retries == 0:
		return errors.New("faulted run recovered without a retry")
	}
	if len(res.Devices) != sc.devices() {
		return fmt.Errorf("%d device stat blocks, want %d", len(res.Devices), sc.devices())
	}
	for d, st := range res.Devices {
		if st.GetsReceived == 0 {
			return fmt.Errorf("device %d received no GETs", d)
		}
	}
	return nil
}

// baseline is the reference result set of a differential: the first
// result it sees, empty or not, and every later one must match it.
type baseline struct {
	rows []tuple.Row
	have bool
}

// check keeps rows as the reference if there is none yet, and
// otherwise requires them to match it.
func (b *baseline) check(rows []tuple.Row) error {
	if !b.have {
		b.rows, b.have = rows, true
		return nil
	}
	return skipper.SameRows(b.rows, rows)
}

// checkSpanTree requires a recorded trace to be structurally sound: one
// root and one execute phase per query, well-formed bounds, known
// parents, and fetch, decode, stall or cycle work under the roots.
func checkSpanTree(qt *trace.QueryTrace, queries int) error {
	spans := qt.Spans()
	if len(spans) == 0 {
		return errors.New("traced run recorded no spans")
	}
	byID := map[int]bool{}
	for _, sp := range spans {
		byID[sp.ID] = true
	}
	var roots, execs, work int
	for _, sp := range spans {
		switch {
		case sp.WallEnd < sp.WallStart:
			return fmt.Errorf("span %d (%s %s) has inverted wall bounds", sp.ID, sp.Cat, sp.Name)
		case sp.HasVirt && sp.VirtEnd < sp.VirtStart:
			return fmt.Errorf("span %d (%s %s) has inverted virtual bounds", sp.ID, sp.Cat, sp.Name)
		case sp.Parent != 0 && !byID[sp.Parent]:
			return fmt.Errorf("span %d has unknown parent %d", sp.ID, sp.Parent)
		}
		switch sp.Cat {
		case trace.CatQuery:
			roots++
			if sp.Parent != 0 || !sp.HasVirt {
				return fmt.Errorf("query span %d is nested (parent %d) or lacks virtual stamps", sp.ID, sp.Parent)
			}
		case trace.CatExecute:
			execs++
		case trace.CatFetch, trace.CatDecode, trace.CatStall, trace.CatCycle:
			work++
		}
	}
	if roots != queries || execs != queries {
		return fmt.Errorf("recorded %d query roots and %d execute phases, want %d of each", roots, execs, queries)
	}
	if work == 0 && qt.Dropped() == 0 {
		return errors.New("no fetch/decode/stall/cycle spans recorded")
	}
	return nil
}
