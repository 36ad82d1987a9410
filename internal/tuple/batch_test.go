package tuple

import (
	"math/rand"
	"reflect"
	"testing"
)

func batchTestSchema() *Schema {
	return NewSchema(
		Column{Name: "i", Kind: KindInt64},
		Column{Name: "f", Kind: KindFloat64},
		Column{Name: "s", Kind: KindString},
		Column{Name: "d", Kind: KindDate},
		Column{Name: "b", Kind: KindBool},
	)
}

func randRow(rng *rand.Rand) Row {
	return Row{
		Int(rng.Int63n(1000) - 500),
		Float(rng.NormFloat64()),
		Str(string(rune('a' + rng.Intn(26)))),
		DateFromDays(rng.Int63n(20000)),
		Bool(rng.Intn(2) == 1),
	}
}

func TestBatchRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	sch := batchTestSchema()
	rows := make([]Row, 100)
	for i := range rows {
		rows[i] = randRow(rng)
	}
	b := FromRows(sch, rows)
	if b.Len() != len(rows) {
		t.Fatalf("len %d", b.Len())
	}
	if !reflect.DeepEqual(b.Rows(), rows) {
		t.Fatal("Rows() round trip differs")
	}
	for i := range rows {
		var scratch Row
		if got := b.AppendRowTo(scratch[:0], i); !reflect.DeepEqual(got, rows[i]) {
			t.Fatalf("AppendRowTo(%d) differs", i)
		}
	}
	// Columns expose the same values column-wise.
	for c := 0; c < sch.Len(); c++ {
		col := b.Col(c)
		for i := range rows {
			if !Equal(col[i], rows[i][c]) {
				t.Fatalf("col %d row %d differs", c, i)
			}
		}
	}
}

func TestBatchResetReuse(t *testing.T) {
	sch := batchTestSchema()
	b := NewBatch(sch, 4)
	rng := rand.New(rand.NewSource(2))
	first := randRow(rng)
	b.AppendRow(first)
	got := b.Rows() // materialized rows must survive reset + refill
	b.Reset()
	if b.Len() != 0 || b.Cap() < 4 {
		t.Fatalf("after reset: len %d cap %d", b.Len(), b.Cap())
	}
	b.AppendRow(randRow(rng))
	if !reflect.DeepEqual(got[0], first) {
		t.Fatal("materialized row mutated by reuse")
	}
}

func TestBatchReserve(t *testing.T) {
	sch := batchTestSchema()
	rng := rand.New(rand.NewSource(4))
	b := NewBatch(sch, 2)
	rows := []Row{randRow(rng), randRow(rng)}
	for _, r := range rows {
		b.AppendRow(r)
	}
	if !b.Full() {
		t.Fatal("a batch sized to its rows should be full once they are in")
	}
	b.Reserve(8)
	if b.Cap() != 8 || b.Len() != 2 || b.Full() {
		t.Fatalf("after Reserve(8): len %d cap %d full %v", b.Len(), b.Cap(), b.Full())
	}
	for i, r := range rows {
		if !reflect.DeepEqual(b.AppendRowTo(nil, i), r) {
			t.Fatalf("row %d lost by Reserve", i)
		}
	}
	b.Reserve(3)
	if b.Cap() != 8 {
		t.Fatalf("Reserve shrank the buffers to %d", b.Cap())
	}
}

func TestBatchAppendBatchRow(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	sch := batchTestSchema()
	rows := make([]Row, 10)
	for i := range rows {
		rows[i] = randRow(rng)
	}
	src := FromRows(sch, rows)
	dst := NewBatch(sch, 10)
	for i := len(rows) - 1; i >= 0; i-- {
		dst.AppendBatchRow(src, i)
	}
	for i := range rows {
		if !reflect.DeepEqual(dst.AppendRowTo(nil, i), rows[len(rows)-1-i]) {
			t.Fatalf("row %d differs", i)
		}
	}
}

// TestBatchAppendSelected: gathering a selection from column slices keeps
// sel's order, and a nil (unprojected) column gets its kind's zero value.
func TestBatchAppendSelected(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	sch := batchTestSchema()
	rows := make([]Row, 20)
	for i := range rows {
		rows[i] = randRow(rng)
	}
	src := FromRows(sch, rows)
	cols := make([][]Value, sch.Len())
	for c := range cols {
		cols[c] = src.Col(c)
	}
	cols[2] = nil // the string column was not decoded
	sel := []int32{17, 0, 3, 3, 19}
	b := NewBatch(sch, len(sel))
	b.AppendRow(rows[1]) // appends after existing rows
	b.AppendSelected(cols, sel)
	if b.Len() != len(sel)+1 {
		t.Fatalf("len %d, want %d", b.Len(), len(sel)+1)
	}
	if !reflect.DeepEqual(b.AppendRowTo(nil, 0), rows[1]) {
		t.Fatal("existing row changed")
	}
	for j, i := range sel {
		want := append(Row(nil), rows[i]...)
		want[2] = Value{K: KindString}
		if got := b.AppendRowTo(nil, j+1); !reflect.DeepEqual(got, want) {
			t.Fatalf("selected row %d (source %d): got %v, want %v", j, i, got, want)
		}
	}
	b.AppendSelected(cols, nil)
	if b.Len() != len(sel)+1 {
		t.Fatal("an empty selection appended rows")
	}
}

// TestHashColumnsMatchesHashRowKey: the vectorized column hash, the scalar
// row-key hash and, for one key column, the per-value key hash must agree
// — the engine mixes them on the two sides of a join.
func TestHashColumnsMatchesHashRowKey(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	sch := batchTestSchema()
	rows := make([]Row, 200)
	for i := range rows {
		rows[i] = randRow(rng)
	}
	b := FromRows(sch, rows)
	for _, keys := range [][]int{{0}, {2}, {1, 3}, {0, 2, 4}} {
		hashes := b.HashColumns(keys, nil)
		for i, r := range rows {
			if want := HashRowKey(r, keys); hashes[i] != want {
				t.Fatalf("keys %v row %d: batch %x, row %x", keys, i, hashes[i], want)
			}
		}
		if len(keys) == 1 {
			for i, r := range rows {
				if got := HashKey(r[keys[0]]); got != hashes[i] {
					t.Fatalf("HashKey key %d row %d: %x, batch %x", keys[0], i, got, hashes[i])
				}
			}
		}
	}
	// Buffer reuse must not change results.
	buf := make([]uint64, 1)
	if got := b.HashColumns([]int{0}, buf); got[0] != HashRowKey(rows[0], []int{0}) {
		t.Fatal("reused buffer produced a different hash")
	}
}

// TestValueHashEqualImpliesHashEqual: equal values hash identically across
// construction paths.
func TestValueHashEqualImpliesHashEqual(t *testing.T) {
	pairs := [][2]Value{
		{Int(42), Int(42)},
		{Float(1.5), Float(1.5)},
		{Str("xyz"), Str("xy" + "z")},
		{Bool(true), Bool(true)},
		{DateFromDays(100), DateFromDays(100)},
	}
	for _, p := range pairs {
		if !Equal(p[0], p[1]) || p[0].Hash() != p[1].Hash() {
			t.Fatalf("%v vs %v: equal values must hash equal", p[0], p[1])
		}
	}
	if Int(3).Hash() == DateFromDays(3).Hash() {
		// Same payload, different kind family is fine to collide only for
		// int-tagged kinds; int and date share the tag by design.
		t.Log("int/date share the integer tag (documented behaviour)")
	}
	if Int(7).Hash() == Str("7").Hash() {
		t.Fatal("int and string with same rendering must not collide")
	}
}
