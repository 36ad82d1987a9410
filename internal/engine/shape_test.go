package engine

import (
	"reflect"
	"runtime"
	"testing"

	"repro/internal/catalog"
	"repro/internal/expr"
	"repro/internal/segment"
	"repro/internal/tuple"
)

// shapeSmallPlan is a served dimension statement's shaping stage in
// miniature: Values → HashAgg → Sort → Project over a few rows.
func shapeSmallPlan(sch *tuple.Schema, rows []tuple.Row) Iterator {
	agg := NewHashAgg(NewValues(sch, rows),
		[]GroupCol{{Name: "v", Kind: tuple.KindString, E: expr.Bind(sch, "v")}},
		[]AggSpec{
			{Kind: AggCount, Name: "n"},
			{Kind: AggSum, Arg: expr.Bind(sch, "k"), Name: "s"},
		})
	as := agg.Schema()
	sorted := NewSort(agg, []SortKey{{E: expr.Bind(as, "n"), Desc: true}, {E: expr.Bind(as, "v")}})
	return NewProject(sorted, []ProjectCol{
		{Name: "v", Kind: tuple.KindString, E: expr.Bind(as, "v")},
		{Name: "n", Kind: tuple.KindInt64, E: expr.Bind(as, "n")},
	})
}

// TestShapeSmallAllocatesInProportion: a 25-row shaping pipeline must
// allocate in proportion to its rows, not a DefaultBatchSize batch per
// operator (which costs ~400 KB here).
func TestShapeSmallAllocatesInProportion(t *testing.T) {
	rows, sch := benchRowsN(25)
	run := func() {
		out, err := Collect(shapeSmallPlan(sch, rows))
		if err != nil || len(out) != 13 {
			t.Fatalf("groups %d err %v", len(out), err)
		}
	}
	run() // warm up
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	const limit = 64 << 10
	if perRun := (after.TotalAlloc - before.TotalAlloc) / runs; perRun > limit {
		t.Fatalf("25-row shaping pipeline allocates %d B per run, want <= %d", perRun, limit)
	}
}

// batchLens drains bi and returns its batch lengths and rows.
func batchLens(t *testing.T, bi Iterator) ([]int, []tuple.Row) {
	t.Helper()
	if err := bi.Open(); err != nil {
		t.Fatal(err)
	}
	defer bi.Close()
	var lens []int
	var rows []tuple.Row
	for {
		b, ok, err := bi.NextBatch()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			return lens, rows
		}
		lens = append(lens, b.Len())
		rows = append(rows, b.Rows()...)
	}
}

// TestBatchBoundariesSurviveRightSizing: sizing batches to their rows
// must not move batch boundaries. Every operator still emits batches of
// DefaultBatchSize rows and a remainder, also when a re-Open brings more
// rows than the reused batch was first sized for.
func TestBatchBoundariesSurviveRightSizing(t *testing.T) {
	small, big := kvRows(25), kvRows(2500) // k ascending: every plan below is the identity
	sch := tuple.NewSchema(
		tuple.Column{Name: "k", Kind: tuple.KindInt64},
		tuple.Column{Name: "v", Kind: tuple.KindString},
	)
	src := NewValues(sch, nil)
	plans := map[string]Iterator{
		"values": src,
		"sort":   NewSort(src, []SortKey{{E: expr.Bind(sch, "k")}}),
		"filter": NewFilter(src, expr.ColGE(sch, "k", tuple.Int(0))),
		"project": NewProject(src, []ProjectCol{
			{Name: "k", Kind: tuple.KindInt64, E: expr.Bind(sch, "k")},
			{Name: "v", Kind: tuple.KindString, E: expr.Bind(sch, "v")},
		}),
		"limit":    NewLimit(src, 2500),
		"distinct": NewDistinct(src),
	}
	steps := []struct {
		rows []tuple.Row
		want []int
	}{
		{small, []int{25}},
		{big, []int{1024, 1024, 452}},
		{small, []int{25}},
	}
	for name, plan := range plans {
		for i, st := range steps {
			src.rows = st.rows
			lens, rows := batchLens(t, plan)
			if !reflect.DeepEqual(lens, st.want) {
				t.Fatalf("%s open %d: batch lengths %v, want %v", name, i, lens, st.want)
			}
			if !reflect.DeepEqual(rows, st.rows) {
				t.Fatalf("%s open %d: rows differ from input", name, i)
			}
		}
	}

	// A LIMIT cutting a batch short fills its own buffer, sized to the cut.
	lim := NewLimit(src, 2000)
	src.rows = big
	for i := 0; i < 2; i++ {
		if lens, rows := batchLens(t, lim); !reflect.DeepEqual(lens, []int{1024, 976}) || !reflect.DeepEqual(rows, big[:2000]) {
			t.Fatalf("limit open %d: batch lengths %v", i, lens)
		}
	}

	// SeqScan, over materialized and lazily decoded segments (the lazy
	// ones with and without a projection), re-pointed between Opens from
	// a one-segment 25-row table to a one-segment 2500-row one and back.
	type table struct {
		tm    *catalog.TableMeta
		store map[segment.ObjectID]*segment.Segment
	}
	var mat, lz [2]table
	mat[0].tm, mat[0].store = buildTable(t, "small", small, 25)
	mat[1].tm, mat[1].store = buildTable(t, "big", big, 2500)
	lz[0].tm, lz[0].store = lazyTable(t, lazyRows(25), 25)
	lz[1].tm, lz[1].store = lazyTable(t, lazyRows(2500), 2500)
	for _, c := range []struct {
		name    string
		tables  [2]table
		project []int
	}{{"materialized", mat, nil}, {"lazy", lz, nil}, {"lazy-projected", lz, []int{0}}} {
		scan := NewSeqScan(NewTestCtx(c.tables[0].store), c.tables[0].tm)
		scan.Project = c.project
		for i, st := range steps {
			tb := c.tables[0]
			if len(st.rows) > 25 {
				tb = c.tables[1]
			}
			scan.ctx, scan.table = NewTestCtx(tb.store), tb.tm
			lens, rows := batchLens(t, scan)
			if !reflect.DeepEqual(lens, st.want) {
				t.Fatalf("seqscan %s open %d: batch lengths %v, want %v", c.name, i, lens, st.want)
			}
			for r, row := range rows {
				if row[0].I != int64(r) {
					t.Fatalf("seqscan %s open %d: row %d has k=%d", c.name, i, r, row[0].I)
				}
			}
		}
	}
}

// TestHashAggGroupOrderGolden pins HashAgg's output order over group keys
// of every kind. Groups are emitted in the byte order of their rendered
// keys (so 10 < 100 < 9 and -3 first); the expected order was recorded
// before group keys were built in a scratch buffer, and must not move at
// any DOP.
func TestHashAggGroupOrderGolden(t *testing.T) {
	sch := tuple.NewSchema(
		tuple.Column{Name: "i", Kind: tuple.KindInt64},
		tuple.Column{Name: "f", Kind: tuple.KindFloat64},
		tuple.Column{Name: "s", Kind: tuple.KindString},
		tuple.Column{Name: "d", Kind: tuple.KindDate},
	)
	ints := []int64{9, 10, -3, 100}
	floats := []float64{0.5, 2, 1e21, -0.25}
	strs := []string{"b", "a|b", "", "B"}
	dates := []int64{0, 9131, -1, 20000}
	var rows []tuple.Row
	for n := 0; n < 40; n++ {
		rows = append(rows, tuple.Row{
			tuple.Int(ints[n%4]), tuple.Float(floats[(n/2)%4]),
			tuple.Str(strs[(n/3)%4]), tuple.DateFromDays(dates[(n/5)%4]),
		})
	}
	want := []string{
		"(-3, -0.25, , 1969-12-31, 1)",
		"(-3, -0.25, , 1995-01-01, 1)",
		"(-3, -0.25, B, 1970-01-01, 1)",
		"(-3, -0.25, b, 1969-12-31, 1)",
		"(-3, -0.25, b, 2024-10-04, 1)",
		"(-3, 2, , 2024-10-04, 1)",
		"(-3, 2, B, 1969-12-31, 2)",
		"(-3, 2, b, 1970-01-01, 1)",
		"(-3, 2, b, 1995-01-01, 1)",
		"(10, 0.5, B, 1969-12-31, 1)",
		"(10, 0.5, B, 1995-01-01, 1)",
		"(10, 0.5, a|b, 2024-10-04, 1)",
		"(10, 0.5, b, 1970-01-01, 1)",
		"(10, 0.5, b, 1995-01-01, 1)",
		"(10, 1e+21, B, 1970-01-01, 1)",
		"(10, 1e+21, a|b, 1995-01-01, 2)",
		"(10, 1e+21, b, 1969-12-31, 1)",
		"(10, 1e+21, b, 2024-10-04, 1)",
		"(100, -0.25, , 1969-12-31, 1)",
		"(100, -0.25, , 1995-01-01, 1)",
		"(100, -0.25, B, 1970-01-01, 1)",
		"(100, -0.25, a|b, 2024-10-04, 2)",
		"(100, 2, , 2024-10-04, 1)",
		"(100, 2, B, 1969-12-31, 1)",
		"(100, 2, B, 2024-10-04, 1)",
		"(100, 2, a|b, 1970-01-01, 1)",
		"(100, 2, a|b, 1995-01-01, 1)",
		"(9, 0.5, , 1969-12-31, 1)",
		"(9, 0.5, , 1995-01-01, 1)",
		"(9, 0.5, a|b, 2024-10-04, 1)",
		"(9, 0.5, b, 1970-01-01, 2)",
		"(9, 1e+21, , 1970-01-01, 1)",
		"(9, 1e+21, a|b, 1970-01-01, 1)",
		"(9, 1e+21, a|b, 1995-01-01, 1)",
		"(9, 1e+21, b, 1969-12-31, 1)",
		"(9, 1e+21, b, 2024-10-04, 1)",
	}
	for _, dop := range []int{1, 2, 4} {
		agg := NewHashAgg(NewValues(sch, rows), []GroupCol{
			{Name: "i", Kind: tuple.KindInt64, E: expr.Bind(sch, "i")},
			{Name: "f", Kind: tuple.KindFloat64, E: expr.Bind(sch, "f")},
			{Name: "s", Kind: tuple.KindString, E: expr.Bind(sch, "s")},
			{Name: "d", Kind: tuple.KindDate, E: expr.Bind(sch, "d")},
		}, []AggSpec{{Kind: AggCount, Name: "n"}})
		if got := renderRows(collectAtDOP(t, agg, dop)); !reflect.DeepEqual(got, want) {
			t.Fatalf("dop %d: group order\n got %q\nwant %q", dop, got, want)
		}
	}
}
