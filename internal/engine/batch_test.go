package engine

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/expr"
	"repro/internal/segment"
	"repro/internal/tuple"
)

func benchRowsN(n int) ([]tuple.Row, *tuple.Schema) {
	sch := tuple.NewSchema(
		tuple.Column{Name: "k", Kind: tuple.KindInt64},
		tuple.Column{Name: "v", Kind: tuple.KindString},
	)
	rows := make([]tuple.Row, n)
	for i := range rows {
		rows[i] = tuple.Row{tuple.Int(int64(i % 97)), tuple.Str(fmt.Sprintf("val%d", i%13))}
	}
	return rows, sch
}

// --- error propagation through the batch paths ---

func TestSeqScanNextBatchPropagatesFetchError(t *testing.T) {
	tm, store := buildTable(t, "t", kvRows(10), 3)
	delete(store, tm.Objects[1]) // miss on the second of four segments
	scan := NewSeqScan(NewTestCtx(store), tm)
	if err := scan.Open(); err != nil {
		t.Fatal(err)
	}
	defer scan.Close()
	if _, ok, err := scan.NextBatch(); err != nil || !ok {
		t.Fatalf("first segment should batch cleanly, got ok=%v err=%v", ok, err)
	}
	if _, ok, err := scan.NextBatch(); err == nil || ok {
		t.Fatalf("missing object not reported on batch path (ok=%v err=%v)", ok, err)
	}
}

func TestCollectPropagatesFetchErrorThroughOperators(t *testing.T) {
	tm, store := buildTable(t, "t", kvRows(10), 3)
	delete(store, tm.Objects[2])
	ctx := NewTestCtx(store)
	pred := expr.ColGE(tm.Schema, "k", tuple.Int(0))
	plans := map[string]Iterator{
		"filter":   NewFilter(NewSeqScan(ctx, tm), pred),
		"project":  NewProject(NewSeqScan(ctx, tm), []ProjectCol{{Name: "k", Kind: tuple.KindInt64, E: expr.Bind(tm.Schema, "k")}}),
		"sort":     NewSort(NewSeqScan(ctx, tm), []SortKey{{E: expr.Bind(tm.Schema, "k")}}),
		"agg":      NewHashAgg(NewSeqScan(ctx, tm), nil, []AggSpec{{Kind: AggCount, Name: "n"}}),
		"distinct": NewDistinct(NewSeqScan(ctx, tm)),
		"join":     JoinOn(NewSeqScan(ctx, tm), NewSeqScan(ctx, tm), [][2]string{{"k", "k"}}),
	}
	for name, it := range plans {
		if _, err := Collect(it); err == nil {
			t.Fatalf("%s: fetch error swallowed", name)
		}
	}
}

func TestHashJoinBuildSideFetchError(t *testing.T) {
	lt, lstore := buildTable(t, "l", kvRows(6), 2)
	delete(lstore, lt.Objects[0])
	rt, rstore := buildTable(t, "r2", kvRows(6), 2)
	for id, sg := range rstore {
		lstore[id] = sg
	}
	ctx := NewTestCtx(lstore)
	join := JoinOn(NewSeqScan(ctx, lt), NewSeqScan(ctx, rt), [][2]string{{"k", "k"}})
	if err := join.Open(); err == nil {
		join.Close()
		t.Fatal("build-side fetch error not surfaced at Open")
	}
}

// randTable builds the segments of a random multi-segment table.
func randTable(t *testing.T, rng *rand.Rand, name string, cols []tuple.Column, n, perSeg int) []*segment.Segment {
	t.Helper()
	rows := make([]tuple.Row, n)
	for i := range rows {
		row := make(tuple.Row, len(cols))
		for c, col := range cols {
			switch col.Kind {
			case tuple.KindInt64:
				row[c] = tuple.Int(rng.Int63n(50))
			case tuple.KindFloat64:
				row[c] = tuple.Float(float64(rng.Int63n(1000)) / 10)
			default:
				row[c] = tuple.Str(fmt.Sprintf("s%d", rng.Intn(20)))
			}
		}
		rows[i] = row
	}
	return segment.Split(0, name, rows, perSeg, 1e9)
}

func renderRows(rows []tuple.Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = r.String()
	}
	return out
}
