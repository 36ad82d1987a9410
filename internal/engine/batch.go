package engine

import (
	"repro/internal/tuple"
)

// DefaultBatchSize is the most rows one NextBatch call moves. Large enough
// to amortize per-call dispatch over data work, small enough to keep a
// batch of every operator in cache. It is a limit, not an allocation
// size: operators that know how many rows a batch will hold size its
// buffers to those rows (see reuseBatch).
const DefaultBatchSize = 1024

// reuseBatch returns *out emptied and with room for n rows, allocating
// it on first use and growing it when a later call (or a re-Open) needs
// more room. Callers pass the rows the batch will hold, at most
// DefaultBatchSize, so a small result never pays for a full-size batch.
func reuseBatch(out **tuple.Batch, schema *tuple.Schema, n int) *tuple.Batch {
	if *out == nil {
		*out = tuple.NewBatch(schema, n)
		return *out
	}
	(*out).Reset()
	(*out).Reserve(n)
	return *out
}

// serveRowSlice serves rows[*idx:] through a reused batch sized to the
// rows it holds, advancing *idx — the shared NextBatch body of every
// operator that holds its output as a materialized row slice.
func serveRowSlice(out **tuple.Batch, schema *tuple.Schema, rows []tuple.Row, idx *int) (*tuple.Batch, bool, error) {
	if *idx >= len(rows) {
		return nil, false, nil
	}
	n := min(len(rows)-*idx, DefaultBatchSize)
	b := reuseBatch(out, schema, n)
	for _, row := range rows[*idx : *idx+n] {
		b.AppendRow(row)
	}
	*idx += n
	return b, true, nil
}

// drainBatches opens bi, feeds every row to fn via a reused scratch row,
// and closes it. The scratch row is only valid within one fn call.
func drainBatches(bi Iterator, fn func(row tuple.Row) error) error {
	if err := bi.Open(); err != nil {
		bi.Close()
		return err
	}
	defer bi.Close()
	var scratch tuple.Row
	for {
		b, ok, err := bi.NextBatch()
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
		for i := 0; i < b.Len(); i++ {
			scratch = b.AppendRowTo(scratch[:0], i)
			if err := fn(scratch); err != nil {
				return err
			}
		}
	}
}
