package engine

import (
	"testing"

	"repro/internal/catalog"
	"repro/internal/segment"
	"repro/internal/tuple"
)

// lazyTable builds a relation whose store serves lazily decoded v2
// segments, as objstore.BuildSegmentStoreLazy would.
func lazyTable(t *testing.T, rows []tuple.Row, perSeg int) (*catalog.TableMeta, map[segment.ObjectID]*segment.Segment) {
	t.Helper()
	sch := tuple.NewSchema(
		tuple.Column{Name: "k", Kind: tuple.KindInt64},
		tuple.Column{Name: "s", Kind: tuple.KindString},
		tuple.Column{Name: "f", Kind: tuple.KindFloat64},
	)
	segs := segment.Split(0, "lazy", rows, perSeg, 1e9)
	store := make(map[segment.ObjectID]*segment.Segment)
	lazy := make([]*segment.Segment, len(segs))
	for i, sg := range segs {
		data, err := sg.EncodeFormat(sch, segment.FormatV2)
		if err != nil {
			t.Fatal(err)
		}
		lz, err := segment.DecodeLazy(sch, data)
		if err != nil {
			t.Fatal(err)
		}
		lazy[i] = lz
		store[lz.ID] = lz
	}
	cat := catalog.New(0)
	tm, err := cat.AddTable("lazy", sch, lazy)
	if err != nil {
		t.Fatal(err)
	}
	return tm, store
}

func lazyRows(n int) []tuple.Row {
	out := make([]tuple.Row, n)
	for i := range out {
		out[i] = tuple.Row{tuple.Int(int64(i)), tuple.Str(string(rune('a' + i%3))), tuple.Float(float64(i) / 4)}
	}
	return out
}

func TestSeqScanLazyProjectedBatches(t *testing.T) {
	tm, store := lazyTable(t, lazyRows(10), 4)
	scan := NewSeqScan(NewTestCtx(store), tm)
	scan.Project = []int{0} // only k
	rows, err := Collect(scan)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 10 {
		t.Fatalf("%d rows", len(rows))
	}
	for i, r := range rows {
		if r[0].AsInt() != int64(i) {
			t.Fatalf("row %d: k=%v", i, r[0])
		}
		// Unprojected columns are typed zero values.
		if r[1].K != tuple.KindString || r[1].S != "" {
			t.Fatalf("row %d: s=%v, want zero string", i, r[1])
		}
		if r[2].K != tuple.KindFloat64 || r[2].F != 0 {
			t.Fatalf("row %d: f=%v, want zero float", i, r[2])
		}
	}
	b := scan.Bytes()
	if b.Fetched <= 0 || b.Decoded <= 0 || b.SkippedByProjection <= 0 {
		t.Fatalf("byte accounting %+v", b)
	}

	// The same scan without projection decodes more and skips nothing.
	full := NewSeqScan(NewTestCtx(store), tm)
	if _, err := Collect(full); err != nil {
		t.Fatal(err)
	}
	fb := full.Bytes()
	if fb.SkippedByProjection != 0 || fb.Decoded <= b.Decoded {
		t.Fatalf("full scan accounting %+v vs projected %+v", fb, b)
	}
	if fb.Fetched != b.Fetched {
		t.Fatalf("fetched bytes differ: %d vs %d", fb.Fetched, b.Fetched)
	}
}

func TestSeqScanEmptyProjectionCountsRows(t *testing.T) {
	tm, store := lazyTable(t, lazyRows(9), 4)
	scan := NewSeqScan(NewTestCtx(store), tm)
	scan.Project = []int{}
	rows, err := Collect(scan)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 9 {
		t.Fatalf("%d rows, want 9", len(rows))
	}
	b := scan.Bytes()
	if b.Decoded != 0 || b.SkippedByProjection <= 0 {
		t.Fatalf("empty projection accounting %+v", b)
	}
}
