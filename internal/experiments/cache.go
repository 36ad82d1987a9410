package experiments

import (
	"fmt"
	"time"

	"repro/internal/metrics"
	"repro/internal/skipper"
)

// This file is the evaluation of the shared segment cache and CSD
// request coalescing: a budget sweep over the repeated-query
// multi-tenant workload (scenario.go) behind `skipperbench -cache`,
// which first runs the gate table's cache rows as the CI divergence
// gate.

// CachePoint is one budget of the shared-cache sweep.
type CachePoint struct {
	// BudgetObjects is the shared cache capacity in nominal 1 GB objects
	// (0 = cache disabled).
	BudgetObjects int
	// DeviceGets counts GETs that reached the CSD; Hits were served by
	// the cache instead.
	DeviceGets int
	// Switches is the device group-switch count.
	Switches int
	// Coalesced counts device requests merged onto another request's
	// transfer (csd.Stats.GetsCoalesced).
	Coalesced int
	// Hits / HitRatio summarize the cache's traffic.
	Hits     int64
	HitRatio float64
	// Makespan is the cluster completion time; AvgClient the mean
	// per-client workload time.
	Makespan  time.Duration
	AvgClient time.Duration
}

// CacheSweepData verifies the divergence gate across every segment
// format, then sweeps the shared-cache budget on the Params' format and
// returns one point per budget (0 = off). It fails — rather than report
// — on any cache-on/off divergence, which is what lets CI use
// `skipperbench -cache` as a correctness gate.
func (p Params) CacheSweepData() ([]CachePoint, error) {
	if err := p.verifyGate("cache"); err != nil {
		return nil, err
	}
	ds, err := p.encoded(p.clusteredDataset())
	if err != nil {
		return nil, err
	}
	footprint := len(ds.Catalog.AllObjects())
	budgets := []int{0}
	for _, b := range []int{footprint / 8, footprint / 4, footprint / 2, footprint} {
		if b > 0 && b != budgets[len(budgets)-1] {
			budgets = append(budgets, b)
		}
	}
	var out []CachePoint
	for _, b := range budgets {
		res, _, err := p.runScenario(ds, Scenario{Mode: skipper.ModeSkipper, DOP: p.Parallelism, Prune: true, SharedCache: b})
		if err != nil {
			return nil, fmt.Errorf("budget %d: %w", b, err)
		}
		pt := CachePoint{
			BudgetObjects: b,
			DeviceGets:    res.CSD.GetsReceived,
			Switches:      res.CSD.GroupSwitches,
			Coalesced:     res.CSD.GetsCoalesced,
			Makespan:      res.Makespan,
			AvgClient:     avgElapsed(res),
		}
		if res.Cache != nil {
			pt.Hits = res.Cache.Hits
			pt.HitRatio = metrics.HitRatio(res.Cache.Hits, res.Cache.Misses)
		}
		out = append(out, pt)
	}
	return out, nil
}

// CacheReport renders CacheSweepData (the `skipperbench -cache` output).
func (p Params) CacheReport() (*Figure, error) {
	pts, err := p.CacheSweepData()
	if err != nil {
		return nil, err
	}
	f := &Figure{
		ID:    "Cache sweep",
		Title: fmt.Sprintf("Shared segment cache budget sweep (%d tenants × %d passes of the probe pair, one shared dataset, round-robin layout, skipper engine)", scenarioClients, scenarioPasses),
		Columns: []string{
			"budget (objects)", "device GETs", "switches", "coalesced",
			"cache hits", "hit ratio", "makespan (s)", "avg client (s)",
		},
		Notes: []string{
			"results verified byte-identical cache on/off across engines, formats (mem/v1/v2), DOP {1,4} and pruning on/off",
			"every run passes RunResult.Check: per client, device GETs received + refused == GETs issued - cache hits - prefetch served + prefetch issued",
		},
	}
	for _, pt := range pts {
		budget := "off"
		if pt.BudgetObjects > 0 {
			budget = fmt.Sprint(pt.BudgetObjects)
		}
		f.Rows = append(f.Rows, []string{
			budget, fmt.Sprint(pt.DeviceGets), fmt.Sprint(pt.Switches), fmt.Sprint(pt.Coalesced),
			fmt.Sprint(pt.Hits), fmt.Sprintf("%.0f%%", 100*pt.HitRatio),
			secs(pt.Makespan), secs(pt.AvgClient),
		})
	}
	return f, nil
}
