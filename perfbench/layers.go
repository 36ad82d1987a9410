package main

import (
	"fmt"
	"time"

	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/segcache"
	"repro/internal/server"
	"repro/internal/skipper"
	"repro/internal/sql"
	"repro/internal/tuple"
	"repro/internal/workload"
)

// replay passes a workload's statements one at a time through each
// layer's entry point, timing every call and counting its allocations.
// It runs with no other load in the process, so the process-wide
// allocation counters belong to the call being measured.
type replay struct {
	ds       *workload.Dataset
	stmts    []string
	oracle   [][]string
	segCache int // objects in the replay tenant's segment cache (0 = none)
}

// callCost is one call's wall time and allocations.
type callCost struct {
	us, allocs, bytes float64
}

func (c *callCost) add(o callCost) {
	c.us += o.us
	c.allocs += o.allocs
	c.bytes += o.bytes
}

// layerCosts holds, per statement, the cost of each call to one entry
// point.
type layerCosts [][]callCost

// perQuery returns the mean over statements of each statement's median
// cost: the cost of one query under a uniform statement mix.
func (lc layerCosts) perQuery() callCost {
	var out callCost
	for _, calls := range lc {
		var us, allocs, bytes []float64
		for _, c := range calls {
			us = append(us, c.us)
			allocs = append(allocs, c.allocs)
			bytes = append(bytes, c.bytes)
		}
		out.add(callCost{us: median(us), allocs: median(allocs), bytes: median(bytes)})
	}
	n := float64(len(lc))
	return callCost{us: out.us / n, allocs: out.allocs / n, bytes: out.bytes / n}
}

// timed runs fn as one call into a layer: it returns the call's cost and
// records its span.
func timed(tr *tracer, op int64, parent int, layer, name string, fn func() error) (callCost, error) {
	c0 := readCounters()
	t0 := time.Now()
	err := fn()
	t1 := time.Now()
	c1 := readCounters()
	tr.add(op, parent, layer, name, t0, t1)
	return callCost{
		us:     usOf(t1.Sub(t0)),
		allocs: float64(c1.allocs - c0.allocs),
		bytes:  float64(c1.bytes - c0.bytes),
	}, err
}

// run replays the statements in order, round after round, for d (at
// least one round) and records the layer metrics in res. With counts
// set, the single-client cluster runs also supply the per-query
// counters of the skipper, engine, stats, segcache, csd and mjoin
// layers.
func (r *replay) run(d time.Duration, tr *tracer, res *result, counts bool) error {
	n := len(r.stmts)
	plan, run, pull, shape, full, proj := make(layerCosts, n), make(layerCosts, n), make(layerCosts, n),
		make(layerCosts, n), make(layerCosts, n), make(layerCosts, n)
	var cc clusterCounts
	var decoded, skipped int64
	var cache *segcache.Cache
	if r.segCache > 0 {
		cache = segcache.NewObjects(r.segCache)
	}
	planner := &sql.Planner{Catalog: r.ds.Catalog}
	// One untimed round fills the replay tenant's cache, as warm-up
	// fills the sessions'.
	for i, stmt := range r.stmts {
		spec, err := planner.Plan(stmt)
		if err != nil {
			return fmt.Errorf("replay: plan statement %d: %w", i, err)
		}
		if _, err := r.cluster(i, spec, cache); err != nil {
			return err
		}
	}
	wrong := func(i int, what string) {
		res.Failed++
		res.Correct = false
		fmt.Printf("# wrong result: replay statement %d: %s differs from the oracle\n", i, what)
	}
	deadline := time.Now().Add(d)
	for rounds := 0; rounds == 0 || time.Now().Before(deadline); rounds++ {
		for i, stmt := range r.stmts {
			op := tr.op()
			t0 := time.Now()
			var spec skipper.QuerySpec
			var out *skipper.RunResult
			var it engine.Iterator
			var joined, shaped []tuple.Row
			// The root span closes after its children, so it is
			// recorded last and they name it as parent by its future id.
			root := tr.reserve()

			c, err := timed(tr, op, root, "sql", "Planner.Plan", func() (err error) {
				spec, err = planner.Plan(stmt)
				return err
			})
			if err != nil {
				return fmt.Errorf("replay: plan statement %d: %w", i, err)
			}
			plan[i] = append(plan[i], c)

			c, err = timed(tr, op, root, "skipper", "Cluster.Run", func() (err error) {
				out, err = r.cluster(i, spec, cache)
				return err
			})
			if err != nil {
				return err
			}
			run[i] = append(run[i], c)
			res.Attempted++
			if !sameRows(render(out.Clients[0].PerQuery[0].Results), r.oracle[i]) {
				wrong(i, "Cluster.Run result")
			}
			if counts {
				cc.add(out)
			}

			c, err = timed(tr, op, root, "engine", "BuildPullPlanPruned+Collect", func() (err error) {
				it, err = skipper.BuildPullPlanPruned(engine.NewTestCtx(r.ds.Store), spec.Join, true)
				if err != nil {
					return err
				}
				joined, err = engine.Collect(it)
				return err
			})
			if err != nil {
				return fmt.Errorf("replay: pull statement %d: %w", i, err)
			}
			pull[i] = append(pull[i], c)

			c, err = timed(tr, op, root, "engine", "Shape", func() (err error) {
				shaped, err = engine.Collect(spec.Shape(engine.NewValues(it.Schema(), joined)))
				return err
			})
			if err != nil {
				return fmt.Errorf("replay: shape statement %d: %w", i, err)
			}
			shape[i] = append(shape[i], c)
			res.Attempted++
			if !sameRows(render(shaped), r.oracle[i]) {
				wrong(i, "pull plan and shaping result")
			}

			var fc, pc callCost
			for _, rel := range spec.Join.Relations {
				schema := rel.Table.Schema
				for si, id := range rel.Table.Objects {
					if rel.Pruner != nil && rel.Pruner.CanSkip(si) {
						continue
					}
					seg := r.ds.Store[id]
					c, err := timed(tr, op, root, "segment", "Materialize "+id.String(), func() error {
						_, err := seg.Materialize(schema)
						return err
					})
					if err != nil {
						return fmt.Errorf("replay: decode %v: %w", id, err)
					}
					fc.add(c)
					c, err = timed(tr, op, root, "segment", "DecodeColumns "+id.String(), func() error {
						cd, err := seg.DecodeColumns(schema, rel.Cols, nil)
						if err == nil && rounds == 0 {
							decoded += cd.BytesDecoded
							skipped += cd.BytesSkipped
						}
						return err
					})
					if err != nil {
						return fmt.Errorf("replay: decode %v: %w", id, err)
					}
					pc.add(c)
				}
			}
			full[i] = append(full[i], fc)
			proj[i] = append(proj[i], pc)
			tr.fill(root, op, 0, "bench", fmt.Sprintf("replay statement %d", i), t0, time.Now())
		}
	}

	p := plan.perQuery()
	res.set("sql.plan_us", p.us, "us")
	res.set("sql.plan_allocs", p.allocs, "count")
	p = run.perQuery()
	res.set("skipper.run_us", p.us, "us")
	res.set("skipper.run_allocs", p.allocs, "count")
	p = pull.perQuery()
	res.set("engine.pull_us", p.us, "us")
	res.set("engine.pull_allocs", p.allocs, "count")
	p = shape.perQuery()
	res.set("engine.shape_us", p.us, "us")
	res.set("engine.shape_allocs", p.allocs, "count")
	res.set("engine.shape_bytes", p.bytes, "B")
	p = full.perQuery()
	res.set("segment.decode_full_us", p.us, "us")
	res.set("segment.decode_full_allocs", p.allocs, "count")
	p = proj.perQuery()
	res.set("segment.decode_proj_us", p.us, "us")
	res.set("segment.decode_proj_allocs", p.allocs, "count")
	res.set("segment.bytes_decoded_per_query", float64(decoded)/float64(n), "B")
	res.set("segment.proj_skip_ratio", metrics.ProjectionRatio(decoded, skipped), "ratio")
	if counts {
		cc.report(res)
	}
	return nil
}

// cluster runs one statement as the server runs a query: a single-client
// cluster with the server's MJoin cache, data skipping and pipeline, and
// the tenant's segment cache.
func (r *replay) cluster(i int, spec skipper.QuerySpec, cache *segcache.Cache) (*skipper.RunResult, error) {
	cfg := server.NewConfig(r.ds)
	prune := cfg.Prune
	c := &skipper.Client{
		Mode:         cfg.Mode,
		Catalog:      r.ds.Catalog,
		Queries:      []skipper.QuerySpec{spec},
		CacheObjects: cfg.CacheObjects,
		StatsPruning: &prune,
		SegCache:     cache,
		Pipeline:     pipeline(),
		KeepResults:  true,
	}
	res, err := (&skipper.Cluster{Clients: []*skipper.Client{c}, Store: r.ds.Store}).Run()
	if err != nil {
		return nil, fmt.Errorf("replay: run statement %d: %w", i, err)
	}
	return res, nil
}

// clusterCounts sums what cluster runs report about their layers.
type clusterCounts struct {
	queries, mjoinQueries                   int
	gets, hits, skipped, pfIssued, pfUseful int
	deviceGets, switches, coalesced         int
	requests, cycles, evictions, subPruned  int
	subTotal                                int
	stall, elapsed                          time.Duration
	pipe                                    engine.PipeStats
}

func (c *clusterCounts) add(res *skipper.RunResult) {
	for _, cs := range res.Clients {
		c.queries += len(cs.PerQuery)
		c.gets += cs.GetsIssued
		c.hits += cs.CacheHits
		c.skipped += cs.SegmentsSkipped
		c.pfIssued += cs.PrefetchIssued
		c.pfUseful += cs.PrefetchUseful
		c.stall += cs.Stalled()
		c.elapsed += cs.Elapsed()
		c.pipe.Add(cs.Pipe)
		if cs.Mode == skipper.ModeSkipper {
			c.mjoinQueries += len(cs.PerQuery)
			c.requests += cs.MJoin.Requests
			c.cycles += cs.MJoin.Cycles
			c.evictions += cs.MJoin.Evictions
			c.subPruned += cs.MJoin.SubplansPruned
			c.subTotal += cs.MJoin.SubplansTotal
		}
	}
	c.deviceGets += res.CSD.GetsReceived
	c.switches += res.CSD.GroupSwitches
	c.coalesced += res.CSD.GetsCoalesced
}

// report records the per-query layer counters.
func (c *clusterCounts) report(res *result) {
	q, mq := float64(c.queries), float64(c.mjoinQueries)
	res.set("skipper.gets_per_query", ratio(float64(c.gets), q), "count")
	res.set("skipper.prefetch_issued", ratio(float64(c.pfIssued), q), "count")
	res.set("skipper.prefetch_useful_ratio", ratio(float64(c.pfUseful), float64(c.pfIssued)), "ratio")
	pb := metrics.PipelineFrom(c.pipe)
	res.set("engine.decode_busy_ms", ratio(msOf(pb.DecodeBusy), q), "ms")
	res.set("engine.decode_stall_ms", ratio(msOf(pb.DecodeStall), q), "ms")
	res.set("engine.decode_overlap_ratio", pb.OverlapRatio(), "ratio")
	res.set("stats.prune_ratio", metrics.PruneRatio(c.gets, c.skipped), "ratio")
	res.set("segcache.hit_ratio", ratio(float64(c.hits), float64(c.gets)), "ratio")
	res.set("csd.device_gets", ratio(float64(c.deviceGets), q), "count")
	res.set("csd.group_switches", ratio(float64(c.switches), q), "count")
	res.set("csd.coalesced", ratio(float64(c.coalesced), q), "count")
	res.set("csd.stall_share", ratio(float64(c.stall), float64(c.elapsed)), "ratio")
	res.set("mjoin.requests", ratio(float64(c.requests), mq), "count")
	res.set("mjoin.cycles", ratio(float64(c.cycles), mq), "count")
	res.set("mjoin.evictions", ratio(float64(c.evictions), mq), "count")
	res.set("mjoin.subplans_pruned_ratio", ratio(float64(c.subPruned), float64(c.subTotal)), "ratio")
}
