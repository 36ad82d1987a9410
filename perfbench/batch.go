package main

import (
	"fmt"
	"time"

	"repro/internal/csd"
	"repro/internal/layout"
	"repro/internal/skipper"
	"repro/internal/trace"
	"repro/internal/workload"
)

// batch_mt is the paper's §5 testbed: tenants share one cold storage
// device and run the repeated-query workload back to back. Tenants 0
// and 2 run the out-of-order skipper engine and tenant 1 the in-order
// vanilla engine, so a device-scheduler change that helps one engine
// and costs the other shows.
const (
	batchSF      = 50   // 71 objects, the paper's SF-50 footprint
	batchRows    = 1000 // rows per object
	batchTenants = 3
	batchPasses  = 2
	batchGroups  = 4  // disk groups the objects are spread over round-robin
	batchMJoin   = 30 // MJoin cache, in objects: the paper's default
	batchVanilla = 1  // the tenant running the vanilla engine
	// batchWindow is how many cluster runs a latency window holds: a
	// 30-second run fills about fifteen. A window's 95th percentile is
	// its second slowest run.
	batchWindow = 20
)

// batchStmts are workload.MultiPass's two statements as SQL text. The
// oracle is computed from this text, so a result check also catches
// MultiPass drifting away from it; the traced run replays the text
// through the server and the layers.
var batchStmts = []string{
	`SELECT l_shipmode, COUNT(*) AS lines, SUM(l_quantity) AS qty
	 FROM lineitem, orders
	 WHERE l_orderkey = o_orderkey AND l_shipdate BETWEEN '1994-01-01' AND '1994-01-31'
	 GROUP BY l_shipmode ORDER BY l_shipmode`,
	`SELECT n_name, COUNT(*) AS lines, SUM(l_quantity) AS qty
	 FROM customer, orders, lineitem, supplier, nation, region
	 WHERE c_custkey = o_custkey AND o_orderkey = l_orderkey AND l_suppkey = s_suppkey
	   AND s_nationkey = n_nationkey AND n_regionkey = r_regionkey AND c_nationkey = s_nationkey
	   AND r_name = 'ASIA'
	   AND o_orderdate BETWEEN '1994-01-01' AND '1994-03-31'
	   AND l_shipdate BETWEEN '1994-01-01' AND '1994-06-30'
	 GROUP BY n_name ORDER BY n_name`,
}

// batchEnv is the set-up batch workload.
type batchEnv struct {
	ds     *workload.Dataset
	oracle [][]string
	seed   int64
}

// buildBatch generates and encodes the dataset, computes the oracle and
// runs the cluster once to warm up, checking its results.
func buildBatch(seed int64) (*batchEnv, error) {
	mem, ds, err := dataset(batchSF, batchRows, seed)
	if err != nil {
		return nil, err
	}
	want, err := oracle(mem, batchStmts, false)
	if err != nil {
		return nil, err
	}
	e := &batchEnv{ds: ds, oracle: want, seed: seed}
	res, _, err := e.run(nil)
	if err != nil {
		return nil, err
	}
	if _, failed, msg := e.check(res); failed > 0 || msg != "" {
		return nil, fmt.Errorf("warm-up: %d wrong results; %s", failed, msg)
	}
	return e, nil
}

// run executes the cluster once and returns its result and wall time.
// With qts, client i records its spans into qts[i].
func (e *batchEnv) run(qts []*trace.QueryTrace) (*skipper.RunResult, time.Duration, error) {
	clients := make([]*skipper.Client, batchTenants)
	for t := range clients {
		mode := skipper.ModeSkipper
		if t == batchVanilla {
			mode = skipper.ModeVanilla
		}
		clients[t] = &skipper.Client{
			Tenant:       t,
			Mode:         mode,
			Catalog:      e.ds.Catalog,
			Queries:      workload.MultiPass(e.ds.Catalog, batchPasses),
			CacheObjects: batchMJoin,
			Parallelism:  1,
			Pipeline:     pipeline(),
			KeepResults:  true,
		}
		if qts != nil {
			clients[t].QTrace = qts[t]
		}
	}
	cl := &skipper.Cluster{
		Clients: clients,
		Layout:  layout.RoundRobinObjects{NumGroups: batchGroups},
		CSD:     csd.DefaultConfig(),
		Store:   e.ds.Store,
	}
	start := time.Now()
	res, err := cl.Run()
	wall := time.Since(start)
	if err != nil {
		return nil, 0, fmt.Errorf("cluster run: %w", err)
	}
	return res, wall, nil
}

// check compares every query's rows with the oracle, checks each
// tenant's GET conservation, and checks that the run exercised what the
// workload exists for. It returns the queries checked, the wrong ones,
// and the first conservation or guard failure ("" if none).
func (e *batchEnv) check(res *skipper.RunResult) (attempted, failed int64, msg string) {
	prefetched := 0
	engines := map[skipper.Mode]bool{}
	for _, cs := range res.Clients {
		for i, q := range cs.PerQuery {
			attempted++
			if !sameRows(render(q.Results), e.oracle[i%len(batchStmts)]) {
				failed++
				if msg == "" {
					msg = fmt.Sprintf("tenant %d query %d: rows differ from the oracle", cs.Tenant, i)
				}
			}
		}
		if len(cs.PerQuery) == batchPasses*len(batchStmts) {
			engines[cs.Mode] = true
		}
		device := res.CSD.GetsByTenant[cs.Tenant]
		want := cs.GetsIssued - cs.CacheHits - cs.PrefetchServed + cs.PrefetchIssued
		if device != want && msg == "" {
			msg = fmt.Sprintf("tenant %d: device GETs %d != issued %d - hits %d - prefetch served %d + prefetch issued %d",
				cs.Tenant, device, cs.GetsIssued, cs.CacheHits, cs.PrefetchServed, cs.PrefetchIssued)
		}
		prefetched += cs.PrefetchIssued
	}
	switch {
	case msg != "":
	case res.CSD.GroupSwitches == 0:
		msg = "the device made no group switch"
	case prefetched == 0:
		msg = "the prefetcher issued no GET"
	case !engines[skipper.ModeSkipper] || !engines[skipper.ModeVanilla]:
		msg = "both engines did not run every query"
	}
	return attempted, failed, msg
}

// batchPhase is what a sequence of cluster runs observed.
type batchPhase struct {
	wallMS    []float64   // wall time per cluster run
	win       windowStats // medians over windows, see recorder
	makespanS []float64
	virtS     float64 // simulated query latency, summed
	queries   int64
	failed    int64
	msg       string
	counts    clusterCounts
}

// loop runs the cluster back to back for d, at least once.
func (e *batchEnv) loop(d time.Duration, traced *tracer) (*batchPhase, error) {
	p := &batchPhase{}
	deadline := time.Now().Add(d)
	rec := newRecorder(batchWindow, float64(batchTenants*batchPasses*len(batchStmts)))
	for len(p.wallMS) == 0 || time.Now().Before(deadline) {
		var qts []*trace.QueryTrace
		if traced != nil {
			for t := 0; t < batchTenants; t++ {
				qts = append(qts, trace.NewQueryTrace(fmt.Sprintf("t%d", t), t, ""))
			}
		}
		t0 := time.Now()
		res, wall, err := e.run(qts)
		if err != nil {
			return nil, err
		}
		if traced != nil {
			op := traced.op()
			root := traced.add(op, 0, "skipper", "Cluster.Run", t0, t0.Add(wall))
			for _, qt := range qts {
				traced.adopt(op, root, qt.Origin(), qt.ExportTrace())
			}
		}
		rec.add(t0.Add(wall), msOf(wall))
		p.wallMS = append(p.wallMS, msOf(wall))
		p.makespanS = append(p.makespanS, res.Makespan.Seconds())
		for _, cs := range res.Clients {
			for _, q := range cs.PerQuery {
				p.virtS += (q.Finish - q.Start).Seconds()
			}
		}
		attempted, failed, msg := e.check(res)
		p.queries += attempted
		p.failed += failed
		if p.msg == "" {
			p.msg = msg
		}
		p.counts.add(res)
	}
	p.win = rec.finish()
	return p, nil
}

// outcome turns a phase into a result's correctness fields.
func (p *batchPhase) outcome() *result {
	res := &result{Attempted: p.queries, Failed: p.failed}
	if p.msg != "" {
		fmt.Printf("# check failed: %s\n", p.msg)
	}
	res.Correct = p.failed == 0 && p.msg == ""
	return res
}

// runBatch runs batch_mt: the untraced end-to-end run, or the traced
// per-layer run.
func runBatch(o options) (*result, error) {
	env, setupS, err := setUp(func() (*batchEnv, error) { return buildBatch(o.seed) }, func(*batchEnv) {})
	if err != nil {
		return nil, err
	}
	fmt.Printf("# set-up %.3f s (median of %d)\n", setupS, setUps)
	if o.trace {
		return env.traced(o)
	}
	c0 := readCounters()
	hp := startHeapPeak(o.duration())
	p, err := env.loop(o.duration(), nil)
	peak := hp.Stop()
	c1 := readCounters()
	if err != nil {
		return nil, err
	}
	res := p.outcome()
	setLatency(res, p.win)
	res.set("virt_mean_s", p.virtS/float64(p.queries), "sim_s")
	res.set("makespan_s", median(p.makespanS), "sim_s")
	res.set("allocs_per_query", float64(c1.allocs-c0.allocs)/float64(p.queries), "count")
	res.set("mem_peak_mb", peak, "MiB")
	res.set("setup_s", setupS, "s")
	fmt.Printf("# %d cluster runs of %d queries in windows of %d; makespan min %.3f max %.3f sim_s; error_rate %g\n",
		len(p.wallMS), batchTenants*batchPasses*len(batchStmts), batchWindow,
		quantile(p.makespanS, 0), quantile(p.makespanS, 1), ratio(float64(res.Failed), float64(res.Attempted)))
	printMetrics(res)
	return res, nil
}

// traced runs the cluster untraced for the layer counters, runtime
// figures and baseline wall time, then with every client tracing. Then
// it serves the statements from a server over the same dataset, untraced
// for the server figures and traced for the admission spans, and
// replays them through each layer.
func (e *batchEnv) traced(o options) (*result, error) {
	d := o.duration()
	c0 := readCounters()
	base, err := e.loop(d*4/10, nil)
	c1 := readCounters()
	if err != nil {
		return nil, err
	}
	res := base.outcome()
	base.counts.report(res)
	setRuntime(res, c0, c1, base.queries)

	tr := newTracer()
	tp, err := e.loop(d*3/10, tr)
	if err != nil {
		return nil, err
	}
	merge(res, tp.outcome())
	res.set("trace.overhead_us", 1000*(median(tp.wallMS)-median(base.wallMS)), "us")
	fmt.Printf("# tracing overhead: median cluster run %.3f ms traced vs %.3f ms untraced\n",
		median(tp.wallMS), median(base.wallMS))

	s, err := startServed(e.ds, 0, batchStmts, e.oracle, e.seed)
	if err != nil {
		return nil, err
	}
	sp, err := s.drive(d/20, nil)
	var tsp *servedPhase
	if err == nil {
		tsp, err = s.drive(d/20, tr)
	}
	s.close()
	if err != nil {
		return nil, err
	}
	merge(res, s.outcome(sp))
	merge(res, s.outcome(tsp))
	res.set("server.overhead_us", ratio(sp.overheadUS, float64(sp.ok)), "us")
	res.set("server.wall_us", ratio(sp.wallUS, float64(sp.ok)), "us")
	res.set("server.queue_us", ratio(tsp.admitUS, float64(tsp.ok)), "us")

	rep := &replay{ds: e.ds, stmts: batchStmts, oracle: e.oracle}
	if err := rep.run(d*2/10, tr, res, false); err != nil {
		return nil, err
	}
	return finishTraced(o, tr, res)
}

// merge adds another phase's correctness to res.
func merge(res, o *result) {
	res.Attempted += o.Attempted
	res.Failed += o.Failed
	res.Correct = res.Correct && o.Correct
}
