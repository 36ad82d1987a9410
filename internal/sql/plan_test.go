package sql_test

import (
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/segment"
	"repro/internal/skipper"
	"repro/internal/sql"
	"repro/internal/tuple"
	"repro/internal/workload"
)

// --- planner over a real dataset ---

func tpchPlanner(t *testing.T) (*sql.Planner, *workload.Dataset) {
	t.Helper()
	ds := workload.TPCH(0, workload.TPCHConfig{SF: 5, RowsPerObject: 30, Seed: 42})
	return &sql.Planner{Catalog: ds.Catalog}, ds
}

func runSQL(t *testing.T, pl *sql.Planner, ds *workload.Dataset, q string) []tuple.Row {
	t.Helper()
	spec, err := pl.Plan(q)
	if err != nil {
		t.Fatalf("plan %q: %v", q, err)
	}
	rows, err := workload.Evaluate(ds, spec)
	if err != nil {
		t.Fatalf("run %q: %v", q, err)
	}
	return rows
}

func TestPlanSingleTableFilter(t *testing.T) {
	pl, ds := tpchPlanner(t)
	rows := runSQL(t, pl, ds, "SELECT o_orderkey, o_totalprice FROM orders WHERE o_orderpriority = '1-URGENT' AND o_orderkey <> 0")
	all := runSQL(t, pl, ds, "SELECT o_orderkey FROM orders")
	if len(rows) == 0 || len(rows) >= len(all) {
		t.Fatalf("filter returned %d of %d rows", len(rows), len(all))
	}
}

func TestPlanStarAndLimit(t *testing.T) {
	pl, ds := tpchPlanner(t)
	rows := runSQL(t, pl, ds, "SELECT * FROM nation LIMIT 5")
	if len(rows) != 5 {
		t.Fatalf("%d rows", len(rows))
	}
	if len(rows[0]) != 3 { // n_nationkey, n_regionkey, n_name
		t.Fatalf("star arity %d", len(rows[0]))
	}
}

func TestPlanTwoTableJoin(t *testing.T) {
	pl, ds := tpchPlanner(t)
	rows := runSQL(t, pl, ds,
		"SELECT n_name, r_name FROM nation, region WHERE n_regionkey = r_regionkey AND r_name = 'ASIA'")
	if len(rows) == 0 {
		t.Fatal("no rows")
	}
	for _, r := range rows {
		if r[1].AsString() != "ASIA" {
			t.Fatalf("row %v", r)
		}
	}
}

func TestPlanJoinOnSyntax(t *testing.T) {
	pl, ds := tpchPlanner(t)
	a := runSQL(t, pl, ds,
		"SELECT n_name FROM nation JOIN region ON n_regionkey = r_regionkey WHERE r_name = 'EUROPE' ORDER BY n_name")
	b := runSQL(t, pl, ds,
		"SELECT n_name FROM nation, region WHERE n_regionkey = r_regionkey AND r_name = 'EUROPE' ORDER BY n_name")
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("JOIN ON differs from comma join:\n%v\n%v", a, b)
	}
}

func TestPlanQ12Equivalent(t *testing.T) {
	pl, ds := tpchPlanner(t)
	sqlRows := runSQL(t, pl, ds, `
		SELECT l_shipmode,
		       SUM(CASE WHEN o_orderpriority IN ('1-URGENT', '2-HIGH') THEN 1 ELSE 0 END) AS high_line_count,
		       SUM(CASE WHEN o_orderpriority IN ('1-URGENT', '2-HIGH') THEN 0 ELSE 1 END) AS low_line_count
		FROM lineitem, orders
		WHERE l_orderkey = o_orderkey
		  AND l_shipmode IN ('MAIL', 'SHIP')
		  AND l_commitdate < l_receiptdate
		  AND l_shipdate < l_commitdate
		  AND l_receiptdate BETWEEN '1994-01-01' AND '1994-12-31'
		GROUP BY l_shipmode
		ORDER BY l_shipmode`)
	handRows, err := workload.Evaluate(ds, workload.Q12(ds.Catalog))
	if err != nil {
		t.Fatal(err)
	}
	if err := skipper.SameRows(sqlRows, handRows); err != nil {
		t.Fatalf("SQL Q12 differs from hand-built plan: %v", err)
	}
}

func TestPlanQ5Equivalent(t *testing.T) {
	pl, ds := tpchPlanner(t)
	sqlRows := runSQL(t, pl, ds, `
		SELECT n_name, SUM(l_extendedprice * (1.0 - l_discount)) AS revenue
		FROM customer, orders, lineitem, supplier, nation, region
		WHERE c_custkey = o_custkey
		  AND o_orderkey = l_orderkey
		  AND l_suppkey = s_suppkey
		  AND s_nationkey = n_nationkey
		  AND n_regionkey = r_regionkey
		  AND c_nationkey = s_nationkey
		  AND r_name = 'ASIA'
		  AND o_orderdate BETWEEN '1994-01-01' AND '1994-12-31'
		GROUP BY n_name
		ORDER BY revenue DESC`)
	handRows, err := workload.Evaluate(ds, workload.Q5(ds.Catalog))
	if err != nil {
		t.Fatal(err)
	}
	if err := skipper.SameRows(sqlRows, handRows); err != nil {
		t.Fatalf("SQL Q5 differs from hand-built plan: %v", err)
	}
}

func render(rows []tuple.Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = r.String()
	}
	return out
}

func TestPlanRunsOnBothEngines(t *testing.T) {
	pl, ds := tpchPlanner(t)
	spec, err := pl.Plan("SELECT COUNT(*) FROM lineitem, orders WHERE l_orderkey = o_orderkey AND l_quantity < 10")
	if err != nil {
		t.Fatal(err)
	}
	local, err := workload.Evaluate(ds, spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []skipper.Mode{skipper.ModeVanilla, skipper.ModeSkipper} {
		st := make(map[segment.ObjectID]*segment.Segment)
		ds.MergeInto(st)
		c := &skipper.Client{Tenant: 0, Mode: mode, Catalog: ds.Catalog,
			Queries: []skipper.QuerySpec{spec}, CacheObjects: 4}
		res, err := (&skipper.Cluster{Clients: []*skipper.Client{c}, Store: st}).Run()
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if res.Clients[0].Rows != int64(len(local)) {
			t.Fatalf("%v: %d rows vs local %d", mode, res.Clients[0].Rows, len(local))
		}
	}
}

func TestPlanAggregatesAndHaving(t *testing.T) {
	pl, ds := tpchPlanner(t)
	rows := runSQL(t, pl, ds, `
		SELECT o_orderpriority, COUNT(*) AS n, AVG(o_totalprice) AS avg_price,
		       MIN(o_totalprice) AS lo, MAX(o_totalprice) AS hi
		FROM orders
		GROUP BY o_orderpriority
		HAVING n > 0
		ORDER BY o_orderpriority`)
	if len(rows) == 0 || len(rows) > 5 {
		t.Fatalf("%d groups", len(rows))
	}
	for _, r := range rows {
		lo, hi, avg := r[3].AsFloat(), r[4].AsFloat(), r[2].AsFloat()
		if lo > avg || avg > hi {
			t.Fatalf("min/avg/max violated: %v", r)
		}
	}
	// Output ordered by group key.
	var names []string
	for _, r := range rows {
		names = append(names, r[0].AsString())
	}
	if !sort.StringsAreSorted(names) {
		t.Fatalf("not ordered: %v", names)
	}
}

func TestPlanPrefixLike(t *testing.T) {
	pl, ds := tpchPlanner(t)
	rows := runSQL(t, pl, ds, "SELECT n_name FROM nation WHERE n_name LIKE 'UNITED%' ORDER BY n_name")
	if len(rows) != 2 {
		t.Fatalf("rows %v", render(rows))
	}
	for _, r := range rows {
		if !strings.HasPrefix(r[0].AsString(), "UNITED") {
			t.Fatalf("row %v", r)
		}
	}
}

func TestPlanErrors(t *testing.T) {
	pl, _ := tpchPlanner(t)
	bad := map[string]string{
		"unknown table":     "SELECT x FROM nosuch",
		"unknown column":    "SELECT nosuch FROM nation",
		"cross join":        "SELECT n_name FROM nation, region WHERE n_nationkey > 0",
		"bad group item":    "SELECT o_totalprice, COUNT(*) FROM orders GROUP BY o_orderpriority",
		"full like":         "SELECT n_name FROM nation WHERE n_name LIKE '%X%'",
		"case without else": "SELECT CASE WHEN n_nationkey = 1 THEN 2 END FROM nation",
		"bad qualifier":     "SELECT region.n_name FROM nation, region WHERE n_regionkey = r_regionkey",
	}
	for label, q := range bad {
		if _, err := pl.Plan(q); err == nil {
			t.Errorf("%s accepted: %q", label, q)
		}
	}
}

func TestPlanCycleEdgeBecomesPostFilter(t *testing.T) {
	// Q5's c_nationkey = s_nationkey closes a cycle; the planner must
	// keep the chain valid and apply the extra equality post-join.
	pl, ds := tpchPlanner(t)
	spec, err := pl.Plan(`
		SELECT COUNT(*) FROM customer, orders, lineitem, supplier
		WHERE c_custkey = o_custkey AND o_orderkey = l_orderkey
		  AND l_suppkey = s_suppkey AND c_nationkey = s_nationkey`)
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Join.Relations) != 4 || len(spec.Join.Joins) != 3 {
		t.Fatalf("chain shape: %d relations, %d joins", len(spec.Join.Relations), len(spec.Join.Joins))
	}
	rows, err := workload.Evaluate(ds, spec)
	if err != nil {
		t.Fatal(err)
	}
	// Sanity: strictly fewer matches than without the nation equality.
	spec2, err := pl.Plan(`
		SELECT COUNT(*) FROM customer, orders, lineitem, supplier
		WHERE c_custkey = o_custkey AND o_orderkey = l_orderkey AND l_suppkey = s_suppkey`)
	if err != nil {
		t.Fatal(err)
	}
	rows2, err := workload.Evaluate(ds, spec2)
	if err != nil {
		t.Fatal(err)
	}
	if rows[0][0].AsInt() >= rows2[0][0].AsInt() {
		t.Fatalf("cycle filter did nothing: %v vs %v", rows[0], rows2[0])
	}
}

func TestPlanTableReorderingForChain(t *testing.T) {
	// FROM order lists region first; the chain must still build by
	// attaching connected tables greedily.
	pl, ds := tpchPlanner(t)
	rows := runSQL(t, pl, ds, `
		SELECT r_name, COUNT(*) AS n FROM region, nation
		WHERE n_regionkey = r_regionkey GROUP BY r_name ORDER BY r_name`)
	if len(rows) != 5 {
		t.Fatalf("groups %v", render(rows))
	}
}

func TestSelectDistinct(t *testing.T) {
	pl, ds := tpchPlanner(t)
	all := runSQL(t, pl, ds, "SELECT o_orderpriority FROM orders")
	distinct := runSQL(t, pl, ds, "SELECT DISTINCT o_orderpriority FROM orders ORDER BY o_orderpriority")
	if len(distinct) >= len(all) {
		t.Fatalf("distinct %d !< all %d", len(distinct), len(all))
	}
	if len(distinct) > 5 {
		t.Fatalf("more than 5 priorities: %v", render(distinct))
	}
	seen := map[string]bool{}
	for i, r := range distinct {
		v := r[0].AsString()
		if seen[v] {
			t.Fatalf("duplicate %q", v)
		}
		seen[v] = true
		if i > 0 && distinct[i-1][0].AsString() > v {
			t.Fatal("not ordered")
		}
	}
	if _, err := pl.Plan("SELECT DISTINCT * FROM orders"); err == nil {
		t.Fatal("DISTINCT * accepted")
	}
}

func TestDistinctAcrossJoin(t *testing.T) {
	pl, ds := tpchPlanner(t)
	rows := runSQL(t, pl, ds, `
		SELECT DISTINCT r_name FROM nation, region
		WHERE n_regionkey = r_regionkey ORDER BY r_name`)
	if len(rows) != 5 {
		t.Fatalf("distinct regions = %d, want 5", len(rows))
	}
}

// TestParserNeverPanics fuzzes the parser with mangled inputs: it must
// return errors, never panic.
func TestParserNeverPanics(t *testing.T) {
	seeds := []string{
		"SELECT a FROM t WHERE x BETWEEN 1 AND 2",
		"SELECT DISTINCT a, SUM(b) AS s FROM t GROUP BY a HAVING s > 1 ORDER BY s DESC LIMIT 5",
		"SELECT CASE WHEN a = 1 THEN 'x' ELSE 'y' END FROM t",
		"SELECT * FROM a JOIN b ON a.x = b.y",
	}
	rng := rand.New(rand.NewSource(7))
	for _, seed := range seeds {
		for i := 0; i < 500; i++ {
			bs := []byte(seed)
			for k := 0; k < 1+rng.Intn(4); k++ {
				switch rng.Intn(3) {
				case 0: // mutate a byte
					bs[rng.Intn(len(bs))] = byte(rng.Intn(128))
				case 1: // delete a span
					at := rng.Intn(len(bs))
					end := at + rng.Intn(len(bs)-at)
					bs = append(bs[:at], bs[end:]...)
				case 2: // duplicate a span
					at := rng.Intn(len(bs))
					end := at + rng.Intn(len(bs)-at)
					bs = append(bs[:end], bs[at:]...)
				}
				if len(bs) == 0 {
					bs = []byte("S")
				}
			}
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("panic on %q: %v", bs, r)
					}
				}()
				_, _ = sql.Parse(string(bs))
			}()
		}
	}
}
