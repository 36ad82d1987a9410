package tuple

// Batch is a column-oriented buffer of rows. It is the unit of data flow
// in the batched execution core: operators fill a batch column by column
// (or row by row), hand it downstream, and reuse the buffers on the next
// cycle. A batch handed to a consumer is valid only until the producer's
// next NextBatch call, so blocking consumers must copy what they keep
// (Rows and AppendRowTo copy).
type Batch struct {
	schema *Schema
	cols   [][]Value
	n      int
}

// NewBatch returns an empty batch over schema with room for capacity rows
// per column. Size capacity to the rows the batch will hold: the buffers
// are allocated up front, so a large capacity costs memory even when few
// rows arrive. Reserve grows a reused batch when a later fill needs more.
func NewBatch(schema *Schema, capacity int) *Batch {
	if capacity <= 0 {
		capacity = 1
	}
	cols := make([][]Value, schema.Len())
	for i := range cols {
		cols[i] = make([]Value, 0, capacity)
	}
	return &Batch{schema: schema, cols: cols}
}

// FromRows builds a batch holding a copy of rows.
func FromRows(schema *Schema, rows []Row) *Batch {
	b := NewBatch(schema, len(rows))
	for _, r := range rows {
		b.AppendRow(r)
	}
	return b
}

// Schema describes the batch's columns.
func (b *Batch) Schema() *Schema { return b.schema }

// Len returns the number of rows currently in the batch.
func (b *Batch) Len() int { return b.n }

// Cap returns the per-column buffer capacity: how many rows fit before an
// append reallocates.
func (b *Batch) Cap() int {
	if len(b.cols) == 0 {
		return 0
	}
	return cap(b.cols[0])
}

// Full reports whether the batch holds as many rows as its buffers have
// room for. It marks the per-batch row limit only for producers that fill
// until Full without knowing their output size, and so allocate the batch
// at that limit. A batch sized to the rows it holds is Full once they are
// in.
func (b *Batch) Full() bool { return b.n >= b.Cap() }

// Reserve grows the column buffers, keeping their rows, so the batch can
// hold n rows without reallocating. It never shrinks a buffer.
func (b *Batch) Reserve(n int) {
	for c, col := range b.cols {
		if cap(col) < n {
			grown := make([]Value, len(col), n)
			copy(grown, col)
			b.cols[c] = grown
		}
	}
}

// Reset empties the batch, keeping the column buffers for reuse.
func (b *Batch) Reset() {
	for i := range b.cols {
		b.cols[i] = b.cols[i][:0]
	}
	b.n = 0
}

// Col returns column i's values; the slice aliases the batch buffer.
func (b *Batch) Col(i int) []Value { return b.cols[i][:b.n] }

// AppendRow copies one row into the batch, growing the buffers if needed.
func (b *Batch) AppendRow(r Row) {
	for i := range b.cols {
		b.cols[i] = append(b.cols[i], r[i])
	}
	b.n++
}

// AppendBatchRow copies row i of src (which must share the schema arity)
// into the batch.
func (b *Batch) AppendBatchRow(src *Batch, i int) {
	for c := range b.cols {
		b.cols[c] = append(b.cols[c], src.cols[c][i])
	}
	b.n++
}

// AppendBatch copies every row of src (which must share the schema arity)
// into the batch, column by column — one bulk copy per column instead of a
// per-row loop. It is how morsels are cloned out of a producer's reused
// buffer before being handed to a parallel worker.
func (b *Batch) AppendBatch(src *Batch) {
	for c := range b.cols {
		b.cols[c] = append(b.cols[c], src.cols[c][:src.n]...)
	}
	b.n += src.n
}

// AppendColumns appends rows [start, end) of the given per-column value
// slices (one slice per schema column, as produced by a projected segment
// decode) into the batch, one bulk copy per column. A nil column slice —
// a column the projection skipped — is filled with the column kind's zero
// value so the batch stays kind-consistent; the planner guarantees such
// columns are never read downstream.
func (b *Batch) AppendColumns(cols [][]Value, start, end int) {
	n := end - start
	for c := range b.cols {
		if cols[c] == nil {
			zero := Value{K: b.schema.Cols[c].Kind}
			for i := 0; i < n; i++ {
				b.cols[c] = append(b.cols[c], zero)
			}
			continue
		}
		b.cols[c] = append(b.cols[c], cols[c][start:end]...)
	}
	b.n += n
}

// AppendSelected appends the rows named by sel, in sel's order, of the
// given per-column value slices (shaped as for AppendColumns) into the
// batch, gathering one column at a time. It lets a filter run first into
// a selection vector, so the batch is sized to the rows that survive.
// A nil column slice is filled with the column kind's zero value.
func (b *Batch) AppendSelected(cols [][]Value, sel []int32) {
	for c := range b.cols {
		dst := b.cols[c]
		if cols[c] == nil {
			zero := Value{K: b.schema.Cols[c].Kind}
			for range sel {
				dst = append(dst, zero)
			}
		} else {
			src := cols[c]
			for _, i := range sel {
				dst = append(dst, src[i])
			}
		}
		b.cols[c] = dst
	}
	b.n += len(sel)
}

// AppendRowTo appends row i's values to dst and returns it; pass a reused
// scratch slice (dst[:0]) to read rows without allocating.
func (b *Batch) AppendRowTo(dst Row, i int) Row {
	for c := range b.cols {
		dst = append(dst, b.cols[c][i])
	}
	return dst
}

// Rows materializes every row of the batch. The rows share one backing
// arena but do not alias the batch buffers, so they stay valid after the
// batch is reset or refilled.
func (b *Batch) Rows() []Row {
	if b.n == 0 {
		return nil
	}
	arena := make([]Value, b.n*len(b.cols))
	out := make([]Row, b.n)
	for i := 0; i < b.n; i++ {
		row := arena[i*len(b.cols) : (i+1)*len(b.cols) : (i+1)*len(b.cols)]
		for c := range b.cols {
			row[c] = b.cols[c][i]
		}
		out[i] = row
	}
	return out
}

// FNV-1a parameters shared by the scalar and vectorized hash paths.
const (
	hashBasis uint64 = 14695981039346656037
	hashPrime uint64 = 1099511628211
)

// HashColumns writes, for each row, the combined hash of the key columns
// into dst (reusing its backing array when large enough) and returns it.
// The combination matches HashRowKey, so columnar build sides and row
// probe sides hash identically. The per-kind dispatch is hoisted out of
// the row loop: each key column is hashed in one tight pass.
func (b *Batch) HashColumns(keys []int, dst []uint64) []uint64 {
	if cap(dst) < b.n {
		dst = make([]uint64, b.n)
	} else {
		dst = dst[:b.n]
	}
	for i := range dst {
		dst[i] = hashBasis
	}
	for _, k := range keys {
		col := b.cols[k][:b.n]
		switch b.schema.Cols[k].Kind {
		case KindString:
			for i := range col {
				dst[i] = dst[i]*hashPrime ^ hashString(col[i].S)
			}
		case KindFloat64:
			for i := range col {
				dst[i] = dst[i]*hashPrime ^ hashFloat(col[i].F)
			}
		default:
			for i := range col {
				dst[i] = dst[i]*hashPrime ^ hashInt(col[i].I)
			}
		}
	}
	return dst
}

// HashRowKey combines the hashes of a row's key columns — the scalar
// counterpart of Batch.HashColumns, used by row-at-a-time probes.
func HashRowKey(r Row, keys []int) uint64 {
	h := hashBasis
	for _, k := range keys {
		h = h*hashPrime ^ r[k].Hash()
	}
	return h
}

// HashKey hashes a single key value: HashColumns and HashRowKey over one
// key column, for probes that read their keys one value at a time.
func HashKey(v Value) uint64 {
	h := hashBasis
	return h*hashPrime ^ v.Hash()
}
