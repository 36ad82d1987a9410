package mjoin

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/expr"
	"repro/internal/segment"
	"repro/internal/tuple"
)

// singleSeg gives every spec one segment, so a query over them has one
// subplan and MJoin's output order is exactly its probe order.
func singleSeg(specs []relSpec) []relSpec {
	for i := range specs {
		specs[i].perSeg = len(specs[i].keys)
	}
	return specs
}

// nestedLoop is the reference join for single-segment relations: each
// relation's rows as MJoin caches them (filtered, with columns outside
// Relation.Cols zeroed to their kind), joined by nested loops in row
// order. Its output order is the lexicographic (root, match, ...) order
// that MJoin's level-wise probe must reproduce.
func nestedLoop(t *testing.T, q *Query, store map[segment.ObjectID]*segment.Segment) []tuple.Row {
	t.Helper()
	out := q.OutputSchema()
	rels := make([][]tuple.Row, len(q.Relations))
	for ri, rel := range q.Relations {
		sch := rel.Table.Schema
		rows, err := store[rel.Table.Objects[0]].Materialize(sch)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rows {
			if rel.Filter != nil {
				keep, err := expr.EvalBool(rel.Filter, r)
				if err != nil {
					t.Fatal(err)
				}
				if !keep {
					continue
				}
			}
			r = append(tuple.Row(nil), r...)
			if rel.Cols != nil {
				projected := make([]bool, sch.Len())
				for _, c := range rel.Cols {
					projected[c] = true
				}
				for c := range r {
					if !projected[c] {
						r[c] = tuple.Value{K: sch.Cols[c].Kind}
					}
				}
			}
			rels[ri] = append(rels[ri], r)
		}
	}
	var res []tuple.Row
	var rec func(d int, acc tuple.Row)
	rec = func(d int, acc tuple.Row) {
		if d == len(rels) {
			res = append(res, append(tuple.Row(nil), acc...))
			return
		}
		for _, r := range rels[d] {
			if d > 0 {
				jc := q.Joins[d-1]
				l := acc[out.MustColIndex(jc.LeftCol)]
				k := r[q.Relations[d].Table.Schema.MustColIndex(jc.RightCol)]
				if l.K != k.K || !tuple.Equal(l, k) {
					continue
				}
			}
			rec(d+1, append(acc, r...))
		}
	}
	rec(0, nil)
	return res
}

// TestProbeMatchesNestedLoopInOrder: MJoin's output equals a nested-loop
// reference row for row, in order, serially and at DOP 2 and 8, with
// pruning on and off.
func TestProbeMatchesNestedLoopInOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cases := []struct {
		name  string
		specs []relSpec
		lazy  bool
		// build returns the query given the tables' schemas.
		build     func(tab func(string) *Relation) *Query
		wantEmpty bool
	}{
		{
			// Relation 2's left key is a second key column of relation 1,
			// relation 3's one of relation 2: past the first level no key
			// is read from the root, nor from a column equal to a key
			// already matched.
			name: "4-way chain, non-root left keys",
			specs: []relSpec{
				{name: "a", col: "k0", keys: denseKeys(rng, 300, 20)},
				{name: "b", col: "k1", keys: denseKeys(rng, 40, 20), fks: denseKeys(rng, 40, 15)},
				{name: "c", col: "k2", keys: denseKeys(rng, 30, 15), fks: denseKeys(rng, 30, 10)},
				{name: "d", col: "k3", keys: denseKeys(rng, 25, 10)},
			},
			build: func(tab func(string) *Relation) *Query {
				return &Query{ID: "chain4",
					Relations: []Relation{*tab("a"), *tab("b"), *tab("c"), *tab("d")},
					Joins: []JoinCond{
						{Rel: 1, LeftCol: "k0", RightCol: "k1"},
						{Rel: 2, LeftCol: "k1_fk", RightCol: "k2"},
						{Rel: 3, LeftCol: "k2_fk", RightCol: "k3"},
					}}
			},
		},
		{
			// 2500 root rows span three probe chunks, so DOP > 1 takes
			// the parallel path; relation 2 keys off the root again.
			name: "root over probeChunk rows",
			specs: []relSpec{
				{name: "a", col: "k0", keys: denseKeys(rng, 2500, 60)},
				{name: "b", col: "k1", keys: denseKeys(rng, 90, 60)},
				{name: "c", col: "k2", keys: denseKeys(rng, 70, 60)},
			},
			build: func(tab func(string) *Relation) *Query {
				return &Query{ID: "bigroot",
					Relations: []Relation{*tab("a"), *tab("b"), *tab("c")},
					Joins: []JoinCond{
						{Rel: 1, LeftCol: "k0", RightCol: "k1"},
						{Rel: 2, LeftCol: "k0", RightCol: "k2"},
					}}
			},
		},
		{
			name: "duplicate keys",
			specs: []relSpec{
				{name: "a", col: "k0", keys: denseKeys(rng, 200, 3)},
				{name: "b", col: "k1", keys: denseKeys(rng, 50, 3)},
			},
			build: func(tab func(string) *Relation) *Query {
				return &Query{ID: "dups",
					Relations: []Relation{*tab("a"), *tab("b")},
					Joins:     []JoinCond{{Rel: 1, LeftCol: "k0", RightCol: "k1"}}}
			},
		},
		{
			name: "leg emptied by its filter",
			specs: []relSpec{
				{name: "a", col: "k0", keys: seqKeys(50)},
				{name: "b", col: "k1", keys: seqKeys(50)},
				{name: "c", col: "k2", keys: seqKeys(50)},
			},
			build: func(tab func(string) *Relation) *Query {
				c := tab("c")
				c.Filter = expr.ColGE(c.Table.Schema, "k2", tuple.Int(1000))
				return &Query{ID: "emptyleg",
					Relations: []Relation{*tab("a"), *tab("b"), *c},
					Joins: []JoinCond{
						{Rel: 1, LeftCol: "k0", RightCol: "k1"},
						{Rel: 2, LeftCol: "k1", RightCol: "k2"},
					}}
			},
			wantEmpty: true,
		},
		{
			name: "single relation",
			specs: []relSpec{
				{name: "a", col: "k0", keys: denseKeys(rng, 2100, 50)},
			},
			build: func(tab func(string) *Relation) *Query {
				a := tab("a")
				a.Filter = expr.ColLT(a.Table.Schema, "k0", tuple.Int(40))
				return &Query{ID: "single", Relations: []Relation{*a}}
			},
		},
		{
			// Lazy v2 arrivals: b is filtered and decodes only its key, so
			// its tag reaches the output as a zero string through the
			// filtered gather; a decodes only its tag and its key.
			name: "filtered projected v2 arrival",
			lazy: true,
			specs: []relSpec{
				{name: "a", col: "k0", keys: denseKeys(rng, 1500, 30)},
				{name: "b", col: "k1", keys: denseKeys(rng, 80, 30)},
			},
			build: func(tab func(string) *Relation) *Query {
				a, b := tab("a"), tab("b")
				a.Cols = []int{0, 1}
				b.Filter = expr.ColLT(b.Table.Schema, "k1", tuple.Int(20))
				b.Cols = []int{0}
				return &Query{ID: "lazyproj",
					Relations: []Relation{*a, *b},
					Joins:     []JoinCond{{Rel: 1, LeftCol: "k0", RightCol: "k1"}}}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			specs := singleSeg(tc.specs)
			cat, store := buildDB(t, specs)
			if tc.lazy {
				cat, store = lazyDB(t, specs)
			}
			q := tc.build(func(name string) *Relation { return &Relation{Table: cat.MustTable(name)} })
			want := nestedLoop(t, q, store)
			if (len(want) == 0) != tc.wantEmpty {
				t.Fatalf("reference has %d rows; case expects empty=%v", len(want), tc.wantEmpty)
			}
			for _, pruning := range []bool{true, false} {
				for _, dop := range parallelDOPs {
					cfg := DefaultConfig(len(q.Relations))
					cfg.Pruning = pruning
					cfg.Parallelism = dop
					res, err := Run(q, cfg, &scriptSource{store: store})
					if err != nil {
						t.Fatal(err)
					}
					if len(res.Rows) != len(want) {
						t.Fatalf("pruning=%v dop %d: %d rows, want %d", pruning, dop, len(res.Rows), len(want))
					}
					for i := range want {
						if !reflect.DeepEqual(res.Rows[i], want[i]) {
							t.Fatalf("pruning=%v dop %d: row %d is %v, want %v", pruning, dop, i, res.Rows[i], want[i])
						}
					}
				}
			}
		})
	}
}

// cachedSubplan returns a manager whose cache holds segment 0 of every
// relation of q, decoded and hashed exactly as arrivals are, and the
// subplan over those segments, ready for executeSubplan.
func cachedSubplan(t testing.TB, q *Query, store map[segment.ObjectID]*segment.Segment, dop int) (*manager, subplan) {
	t.Helper()
	cfg := DefaultConfig(len(q.Relations))
	cfg.Parallelism = dop
	m, err := newManager(q, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	for rel := range q.Relations {
		id := q.Relations[rel].Table.Objects[0]
		batch, err := m.arrivalBatch(rel, store[id])
		if err != nil {
			t.Fatal(err)
		}
		m.cache[id] = m.buildEntry(rel, batch)
	}
	return m, make(subplan, len(q.Relations))
}

// fanoutChain builds a single-segment 3-way chain a ⋈ b ⋈ c in which
// each root row has fanout matches in b and each of those fanout matches
// in c, so the output has rootRows·fanout² rows.
func fanoutChain(t testing.TB, rootRows, fanout int) (*Query, map[segment.ObjectID]*segment.Segment) {
	const domain = 500
	keys := func(n int) []int64 {
		out := make([]int64, n)
		for i := range out {
			out[i] = int64(i % domain)
		}
		return out
	}
	cat, store := buildDB(t, singleSeg([]relSpec{
		{name: "a", col: "k0", keys: keys(rootRows)},
		{name: "b", col: "k1", keys: keys(domain * fanout)},
		{name: "c", col: "k2", keys: keys(domain * fanout)},
	}))
	return &Query{
		ID:        fmt.Sprintf("fanout%d", fanout),
		Relations: []Relation{{Table: cat.MustTable("a")}, {Table: cat.MustTable("b")}, {Table: cat.MustTable("c")}},
		Joins: []JoinCond{
			{Rel: 1, LeftCol: "k0", RightCol: "k1"},
			{Rel: 2, LeftCol: "k1", RightCol: "k2"},
		},
	}, store
}

// TestProbeAllocsPerChunk: a subplan execution allocates a small constant
// per probe chunk, independent of how many root rows and partial matches
// each chunk holds. Building a row per partial tuple or per result row
// would cost thousands of allocations here.
func TestProbeAllocsPerChunk(t *testing.T) {
	for _, dop := range []int{1, 2} {
		perFanout := map[int]float64{}
		for _, c := range []struct{ chunks, fanout int }{{1, 1}, {3, 1}, {3, 4}} {
			rootRows := c.chunks * probeChunk
			q, store := fanoutChain(t, rootRows, c.fanout)
			m, sp := cachedSubplan(t, q, store, dop)
			// Grow every worker's index vectors once up front: which worker
			// claims which chunk varies, and a worker that claimed none in
			// AllocsPerRun's warm-up run would grow them inside the count.
			// Every chunk of this chain has the same matches.
			entries := make([]*cacheEntry, len(q.Relations))
			for ri, rel := range q.Relations {
				entries[ri] = m.cache[rel.Table.Objects[0]]
			}
			for w := range m.scratches {
				var sink []tuple.Row
				m.probeLevels(entries, 0, probeChunk, &m.scratches[w], &sink)
			}
			n := testing.AllocsPerRun(5, func() {
				m.rows = m.rows[:0]
				m.executeSubplan(sp)
			})
			if want := rootRows * c.fanout * c.fanout; len(m.rows) != want {
				t.Fatalf("dop %d %+v: %d rows, want %d", dop, c, len(m.rows), want)
			}
			t.Logf("dop %d, %d chunks, fanout %d: %.0f allocs", dop, c.chunks, c.fanout, n)
			// Serially: the entries slice plus one arena per chunk. In
			// parallel: per-chunk result slices and the worker pool too.
			if limit := float64(4*c.chunks + 16); n > limit {
				t.Fatalf("dop %d %+v: %.0f allocs per subplan, want <= %.0f", dop, c, n, limit)
			}
			if c.chunks == 3 {
				perFanout[c.fanout] = n
			}
		}
		if perFanout[4] > perFanout[1]+2 {
			t.Fatalf("dop %d: allocs grew with partial matches: %.0f at fanout 1, %.0f at fanout 4", dop, perFanout[1], perFanout[4])
		}
	}
}
