package main

import (
	"fmt"
	"time"
)

// serveSpec defines a serving workload: the dataset the in-process
// server serves, each tenant's segment cache, and the statements the
// sessions pick from.
type serveSpec struct {
	sf       int  // TPC-H scale factor: sets the object count per table
	rows     int  // rows per object
	segCache int  // each tenant's segment cache, in objects
	warmup   int  // statements per session after one pass over all, before timing
	hot      bool // guard for an all-hit cache instead of a churning one
	stmts    []string
}

// serveHot's statements return at most 25 rows from the two dimension
// tables, whose two objects the 8-object cache holds after warm-up: the
// time goes to protocol, planning, per-query simulation set-up and the
// shaping operators.
var serveHot = serveSpec{
	sf: 4, rows: 24, segCache: 8, warmup: 100, hot: true,
	stmts: []string{
		`SELECT n_name, r_name FROM nation, region WHERE n_regionkey = r_regionkey ORDER BY n_name`,
		`SELECT n_nationkey, n_name FROM nation WHERE n_regionkey = 2 ORDER BY n_nationkey`,
		`SELECT n_regionkey, COUNT(*) AS nations FROM nation GROUP BY n_regionkey ORDER BY n_regionkey`,
	},
}

// serveCold's statements touch about 20 of the 26 objects while each
// tenant caches 4, so the cache churns and queries reach the device.
// Aggregates are integer or MAX, so results do not depend on the order
// rows arrive in. Each date window lies at least two months inside the
// expected span of the segments it selects, so data skipping keeps the
// same segments for every seed: 1 lineitem segment for the join, 2 for
// the scan, 1 orders segment each for the Q5-style join and the group
// by. The Q5-style join has a one-year order-date window but no region
// filter: with one, some seeds return no rows at this scale.
var serveCold = serveSpec{
	sf: 16, rows: 200, segCache: 4, warmup: 20,
	stmts: []string{
		`SELECT l_shipmode, COUNT(*) AS lines, SUM(l_quantity) AS qty
		 FROM lineitem, orders
		 WHERE l_orderkey = o_orderkey AND l_shipdate BETWEEN '1995-01-01' AND '1995-01-20'
		 GROUP BY l_shipmode ORDER BY l_shipmode`,
		`SELECT n_name, COUNT(*) AS lines, SUM(l_quantity) AS qty
		 FROM customer, orders, lineitem, supplier, nation, region
		 WHERE c_custkey = o_custkey AND o_orderkey = l_orderkey AND l_suppkey = s_suppkey
		   AND s_nationkey = n_nationkey AND n_regionkey = r_regionkey AND c_nationkey = s_nationkey
		   AND o_orderdate BETWEEN '1994-03-01' AND '1995-02-28'
		 GROUP BY n_name ORDER BY n_name`,
		`SELECT l_shipmode, COUNT(*) AS lines, SUM(l_quantity) AS qty
		 FROM lineitem
		 WHERE l_shipdate BETWEEN '1993-08-01' AND '1994-02-28'
		 GROUP BY l_shipmode ORDER BY l_shipmode`,
		`SELECT o_orderpriority, COUNT(*) AS orders, MAX(o_totalprice) AS top
		 FROM orders
		 WHERE o_orderdate BETWEEN '1996-01-01' AND '1996-10-31'
		 GROUP BY o_orderpriority ORDER BY o_orderpriority`,
	},
}

// serveEnv is a set-up serving workload.
type serveEnv struct {
	*served
	spec serveSpec
	rep  *replay
}

// buildServe generates and encodes the dataset, computes the oracle,
// boots the server, opens the sessions and warms them up.
func buildServe(sp serveSpec, seed int64) (*serveEnv, error) {
	mem, ds, err := dataset(sp.sf, sp.rows, seed)
	if err != nil {
		return nil, err
	}
	want, err := oracle(mem, sp.stmts, true)
	if err != nil {
		return nil, err
	}
	s, err := startServed(ds, sp.segCache, sp.stmts, want, seed)
	if err != nil {
		return nil, err
	}
	if err := s.warm(sp.warmup); err != nil {
		s.close()
		return nil, err
	}
	rep := &replay{ds: ds, stmts: sp.stmts, oracle: want, segCache: sp.segCache}
	return &serveEnv{served: s, spec: sp, rep: rep}, nil
}

// guard checks that the phase exercised the layers the workload exists
// for; it returns "" when it did.
func (e *serveEnv) guard(p *servedPhase) string {
	hit := ratio(float64(p.hits), float64(p.gets))
	fmt.Printf("# guard: GETs %d, cache hits %d (ratio %.4f), pruned %d, device GETs %.0f\n",
		p.gets, p.hits, hit, p.pruned, p.deviceGets)
	switch {
	case p.ok == 0:
		return "no statement completed"
	case e.spec.hot && (p.gets == 0 || p.hits != p.gets):
		return fmt.Sprintf("cache hit ratio %.4f, want 1 after warm-up", hit)
	case e.spec.hot && p.deviceGets != 0:
		return fmt.Sprintf("%.0f GETs reached the device, want 0 after warm-up", p.deviceGets)
	case !e.spec.hot && p.deviceGets == 0:
		return "no GET reached the device"
	case !e.spec.hot && p.pruned == 0:
		return "data skipping pruned no segment"
	case !e.spec.hot && (p.hits == 0 || p.hits == p.gets):
		return fmt.Sprintf("cache hit ratio %.4f, want strictly between 0 and 1", hit)
	}
	return ""
}

// runServe runs a serving workload: the untraced end-to-end run, or the
// traced per-layer run.
func runServe(o options, sp serveSpec) (*result, error) {
	env, setupS, err := setUp(func() (*serveEnv, error) { return buildServe(sp, o.seed) }, (*serveEnv).close)
	if err != nil {
		return nil, err
	}
	defer env.close()
	fmt.Printf("# set-up %.3f s (median of %d)\n", setupS, setUps)
	if o.trace {
		return env.traced(o)
	}
	c0 := readCounters()
	hp := startHeapPeak(o.duration())
	p, err := env.drive(o.duration(), nil)
	peak := hp.Stop()
	c1 := readCounters()
	if err != nil {
		return nil, err
	}
	res := env.outcome(p)
	setLatency(res, p.win)
	res.set("virt_mean_s", p.virtMeanS(), "sim_s")
	res.set("makespan_s", p.passS(), "sim_s")
	res.set("allocs_per_query", ratio(float64(c1.allocs-c0.allocs), float64(p.ok)), "count")
	res.set("mem_peak_mb", peak, "MiB")
	res.set("setup_s", setupS, "s")
	fmt.Printf("# %d statements in %.3f s by %d sessions; %d windows of %d latency samples, p95 has %d beyond it; error_rate %g\n",
		p.ok, p.elapsed.Seconds(), sessions, p.ok/servedWindow, servedWindow, servedWindow/20,
		ratio(float64(res.Failed), float64(res.Attempted)))
	printMetrics(res)
	return res, nil
}

// outcome turns a phase into a result's correctness fields, guards
// included.
func (e *serveEnv) outcome(p *servedPhase) *result {
	res := e.served.outcome(p)
	if msg := e.guard(p); msg != "" {
		fmt.Printf("# guard failed: %s\n", msg)
		res.Correct = false
	}
	return res
}

// traced splits the run: an untraced phase for the server and runtime
// figures and the baseline round trip, a traced phase whose spans nest
// the server's own under each round trip, and the per-layer replay.
func (e *serveEnv) traced(o options) (*result, error) {
	d := o.duration()
	c0 := readCounters()
	base, err := e.drive(d*4/10, nil)
	c1 := readCounters()
	if err != nil {
		return nil, err
	}
	res := e.outcome(base)
	n := float64(base.ok)
	res.set("server.overhead_us", ratio(base.overheadUS, n), "us")
	res.set("server.wall_us", ratio(base.wallUS, n), "us")
	setRuntime(res, c0, c1, base.ok)

	tr := newTracer()
	tp, err := e.drive(d*3/10, tr)
	if err != nil {
		return nil, err
	}
	merge(res, e.outcome(tp))
	res.set("server.queue_us", ratio(tp.admitUS, float64(tp.ok)), "us")
	res.set("trace.overhead_us", 1000*(tp.meanMS-base.meanMS), "us")
	fmt.Printf("# tracing overhead: mean round trip %.1f us traced vs %.1f us untraced; %d program spans fetched\n",
		1000*tp.meanMS, 1000*base.meanMS, tp.tracedSpans)

	if err := e.rep.run(d*3/10, tr, res, true); err != nil {
		return nil, err
	}
	return finishTraced(o, tr, res)
}

// finishTraced prints the self-time table, writes the spans and prints
// the per-layer metrics.
func finishTraced(o options, tr *tracer, res *result) (*result, error) {
	tr.printSelfTimes()
	path, err := tr.write(spanDir, o.workload, o.seed)
	if err != nil {
		return nil, err
	}
	fmt.Printf("# spans written to %s\n", path)
	printMetrics(res)
	return res, nil
}

// spanDir is where traced runs write their spans, relative to the
// working directory.
const spanDir = ".bench_build/perfbench"

// setRuntime records the garbage collector's work over a phase.
func setRuntime(res *result, c0, c1 counters, queries int64) {
	q := float64(queries)
	res.set("runtime.gc_per_1k_queries", 1000*ratio(float64(c1.gcs-c0.gcs), q), "count")
	res.set("runtime.gc_pause_ms", 1000*ratio(msOf(time.Duration(c1.pauseNS-c0.pauseNS)), q), "ms")
}
