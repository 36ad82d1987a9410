package sql_test

import (
	"testing"

	"repro/internal/engine"
	"repro/internal/skipper"
	"repro/internal/tuple"
	"repro/internal/workload"
)

// TestPlannerAttachesPruners: the planner must classify prunable
// table-local predicates and attach a stats.Pruner to those scan specs —
// and only those.
func TestPlannerAttachesPruners(t *testing.T) {
	pl, _ := tpchPlanner(t)
	spec, err := pl.Plan(`
		SELECT l_orderkey FROM lineitem, orders
		WHERE l_orderkey = o_orderkey
		  AND l_shipdate BETWEEN '1994-01-01' AND '1994-03-31'`)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]bool{}
	for _, rel := range spec.Join.Relations {
		byName[rel.Table.Name] = rel.Pruner != nil
	}
	if !byName["lineitem"] {
		t.Fatal("lineitem's range predicate did not get a Pruner")
	}
	if byName["orders"] {
		t.Fatal("unfiltered orders got a Pruner")
	}

	// Equality and IN predicates are prunable too (Bloom + zone map).
	spec, err = pl.Plan(`SELECT c_custkey FROM customer WHERE c_mktsegment IN ('BUILDING', 'AUTOMOBILE')`)
	if err != nil {
		t.Fatal(err)
	}
	if spec.Join.Relations[0].Pruner == nil {
		t.Fatal("IN predicate did not get a Pruner")
	}

	// A purely column-vs-column predicate has no prunable structure.
	spec, err = pl.Plan(`SELECT l_orderkey FROM lineitem WHERE l_commitdate < l_receiptdate`)
	if err != nil {
		t.Fatal(err)
	}
	if spec.Join.Relations[0].Pruner != nil {
		t.Fatal("column-vs-column predicate got a Pruner")
	}

	// Mixed conjunction: prunable on the literal term alone.
	spec, err = pl.Plan(`SELECT l_orderkey FROM lineitem WHERE l_commitdate < l_receiptdate AND l_quantity < 10`)
	if err != nil {
		t.Fatal(err)
	}
	if spec.Join.Relations[0].Pruner == nil {
		t.Fatal("mixed conjunction did not get a Pruner")
	}
}

// TestPlannerPrunerSound: for a sweep of SQL predicates, executing with
// the planner-attached pruners (the default) must match executing the
// same statement with pruning stripped.
func TestPlannerPrunerSound(t *testing.T) {
	pl, ds := tpchPlanner(t)
	queries := []string{
		`SELECT l_orderkey, l_quantity FROM lineitem WHERE l_shipdate BETWEEN '1994-01-01' AND '1994-06-30' ORDER BY l_orderkey, l_quantity, l_shipdate`,
		`SELECT o_orderkey FROM orders WHERE o_orderpriority = '1-URGENT' ORDER BY o_orderkey`,
		`SELECT l_orderkey FROM lineitem WHERE l_shipmode LIKE 'R%' AND l_quantity <= 5 ORDER BY l_orderkey`,
		`SELECT c_custkey FROM customer WHERE c_mktsegment = 'no-such-segment'`,
	}
	for _, q := range queries {
		spec, err := pl.Plan(q)
		if err != nil {
			t.Fatalf("plan %q: %v", q, err)
		}
		pruned, err := evaluatePruned(ds, spec)
		if err != nil {
			t.Fatalf("pruned %q: %v", q, err)
		}
		// workload.Evaluate is the pruning-independent oracle.
		plain, err := workload.Evaluate(ds, spec)
		if err != nil {
			t.Fatalf("unpruned %q: %v", q, err)
		}
		if err := skipper.SameRows(pruned, plain); err != nil {
			t.Fatalf("%q pruned vs unpruned: %v", q, err)
		}
	}
}

// evaluatePruned runs the spec locally with data skipping enabled.
func evaluatePruned(ds *workload.Dataset, spec skipper.QuerySpec) ([]tuple.Row, error) {
	it, err := skipper.BuildPullPlanPruned(engine.NewTestCtx(ds.Store), spec.Join, true)
	if err != nil {
		return nil, err
	}
	if spec.Shape != nil {
		it = spec.Shape(it)
	}
	return engine.Collect(it)
}
