package mjoin

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/expr"
	"repro/internal/segment"
	"repro/internal/tuple"
)

// This file implements the stateless n-ary join operator (§4.1): the
// state manager builds one hash table per cached object, keyed by the
// join column that attaches the object's relation to the chain, and
// subplan execution probes those tables directly — no per-subplan
// rebuild. Relation 0 (the probe root) needs no hash table.
//
// Execution is batch-at-a-time and late-materialising: cached rows live
// in columnar batches whose key column is hashed with one vectorized pass
// at build time, and probe chains advance level by level over flat
// row-index vectors — a partial tuple is one row index per joined
// relation, and each level reads its key straight from the owning
// relation's cached column. The per-tuple work in the inner loop is a
// key hash, a table lookup and an equality check; no row is built until
// a tuple has survived the last level, and then all of a chunk's result
// rows share one value arena.
//
// With Config.Parallelism > 1 the probeChunk-sized root partitions of a
// subplan are claimed by a pool of workers, each expanding its chunks
// through the full probe chain with private scratch buffers against the
// shared (read-only) cache entries. Per-chunk outputs are stitched back
// in chunk order, so the result rows are byte-identical to the serial
// execution's, in the same order, at any DOP.

// probeChunk bounds how many root rows are expanded through the probe
// chain at once, keeping intermediate buffers cache-sized.
const probeChunk = 1024

// cacheEntry is the cached state of one arrived object: its filtered
// rows in columnar form plus the hash table on the relation's inbound
// join column.
type cacheEntry struct {
	batch *tuple.Batch
	// table maps hash(join-key) -> row indices into batch; nil for
	// relation 0.
	table map[uint64][]int32
	// keyIdx is the column the table is keyed on (RightCol of the
	// relation's JoinCond), -1 for relation 0.
	keyIdx int
}

// arrivalBytes is the byte accounting of one decoded arrival, kept out
// of Stats until the arrival is actually consumed: the pipelined path
// decodes speculatively and discards the accounting of arrivals no
// pending subplan needs (the serial path never decodes those at all).
type arrivalBytes struct {
	fetched, decoded, skippedByProjection, materialized int64
}

// addArrivalBytes folds one consumed arrival's byte accounting into Stats.
func (m *manager) addArrivalBytes(by arrivalBytes) {
	m.stats.BytesFetched += by.fetched
	m.stats.BytesDecoded += by.decoded
	m.stats.BytesSkippedByProjection += by.skippedByProjection
	m.stats.BytesMaterialized += by.materialized
}

// arrivalBatch is the serial decode step: decodeArrival against the
// manager's single reused buffer, with the byte accounting applied
// immediately.
func (m *manager) arrivalBatch(rel int, seg *segment.Segment) (*tuple.Batch, error) {
	batch, cd, by, err := m.decodeArrival(rel, seg, m.arrivalCD)
	if err != nil {
		return nil, err
	}
	if cd != nil {
		m.arrivalCD = cd
	}
	m.addArrivalBytes(by)
	return batch, nil
}

// decodeArrival turns one delivered segment into the filtered columnar
// batch a cache entry holds. Materialized segments filter their rows as
// before; lazily decoded segments decode only the relation's projected
// column blocks (Relation.Cols) and filter straight off the decoded
// columns — no intermediate Row materialization on the scan path.
// Everything cached is copied out of the decode buffer, so reuse can be
// recycled once the call returns. Decode errors (lazy stores validate
// headers at build time, block contents on first decode) surface as
// errors, like the vanilla scan path; filter failures still panic — the
// predicate was validated at plan time, so they indicate a bug.
//
// decodeArrival is a pure computation over immutable manager state (the
// query plan) plus the reuse buffer the caller hands over: it is safe to
// run on a decode-pool worker as long as each concurrent call owns a
// distinct reuse buffer.
func (m *manager) decodeArrival(rel int, seg *segment.Segment, reuse *segment.ColumnData) (*tuple.Batch, *segment.ColumnData, arrivalBytes, error) {
	var by arrivalBytes
	r := &m.q.Relations[rel]
	schema := r.Table.Schema
	if !seg.Lazy() {
		rows, err := filterRows(r.Filter, seg.Rows)
		if err != nil {
			panic(fmt.Sprintf("mjoin: filter on %v: %v", seg.ID, err))
		}
		return tuple.FromRows(schema, rows), nil, by, nil
	}
	cd, err := seg.DecodeColumns(schema, r.Cols, reuse)
	if err != nil {
		return nil, nil, by, fmt.Errorf("mjoin: decode %v: %w", seg.ID, err)
	}
	by = arrivalBytes{
		fetched:             seg.EncodedSize(),
		decoded:             cd.BytesDecoded,
		skippedByProjection: cd.BytesSkipped,
		materialized:        cd.BytesMaterialized,
	}
	if r.Filter == nil {
		batch := tuple.NewBatch(schema, cd.NumRows)
		batch.AppendColumns(cd.Cols, 0, cd.NumRows)
		return batch, cd, by, nil
	}
	// Evaluate the filter into a selection vector first, so the cached
	// batch is sized to the surviving rows. The filter reads a scratch
	// row assembled per index; columns outside the projection keep a
	// fixed typed zero value (the planner guarantees the filter never
	// reads them).
	scratch := make(tuple.Row, schema.Len())
	for c := range cd.Cols {
		if cd.Cols[c] == nil {
			scratch[c] = tuple.Value{K: schema.Cols[c].Kind}
		}
	}
	sel := make([]int32, 0, cd.NumRows)
	for i := 0; i < cd.NumRows; i++ {
		for c := range cd.Cols {
			if cd.Cols[c] != nil {
				scratch[c] = cd.Cols[c][i]
			}
		}
		keep, err := expr.EvalBool(r.Filter, scratch)
		if err != nil {
			panic(fmt.Sprintf("mjoin: filter on %v: %v", seg.ID, err))
		}
		if keep {
			sel = append(sel, int32(i))
		}
	}
	batch := tuple.NewBatch(schema, len(sel))
	batch.AppendSelected(cd.Cols, sel)
	return batch, cd, by, nil
}

// buildEntry constructs the cache entry for an arrival of relation rel.
// The key column index is precomputed per relation (m.keyIdxByRel), and
// the whole segment is hashed in one vectorized pass.
func (m *manager) buildEntry(rel int, batch *tuple.Batch) *cacheEntry {
	e := &cacheEntry{batch: batch, keyIdx: -1}
	if rel == 0 {
		return e
	}
	e.keyIdx = m.keyIdxByRel[rel]
	sc := &m.scratches[0]
	sc.hashBuf = e.batch.HashColumns([]int{e.keyIdx}, sc.hashBuf)
	e.table = make(map[uint64][]int32, e.batch.Len())
	for i, h := range sc.hashBuf {
		e.table[h] = append(e.table[h], int32(i))
	}
	return e
}

// probePlan resolves, once per query, where each probe level reads its
// key: the relation that owns the join's left column and the column's
// index in that relation's cached batch.
type probePlan struct {
	// leftRel[i-1] and leftCol[i-1] locate Joins[i-1].LeftCol: it is
	// column leftCol[i-1] of relation leftRel[i-1] (< i).
	leftRel, leftCol []int
	// width is the output arity: the sum of the relations' arities.
	width int
}

func buildProbePlan(q *Query) (*probePlan, error) {
	acc := q.Relations[0].Table.Schema
	pp := &probePlan{width: acc.Len()}
	// offset[r] is where relation r starts in the accumulated schema.
	offset := []int{0}
	for i, jc := range q.Joins {
		idx, ok := acc.ColIndex(jc.LeftCol)
		if !ok {
			return nil, fmt.Errorf("mjoin: join %d: column %q not found in accumulated schema", i, jc.LeftCol)
		}
		r := i
		for offset[r] > idx {
			r--
		}
		pp.leftRel = append(pp.leftRel, r)
		pp.leftCol = append(pp.leftCol, idx-offset[r])
		rs := q.Relations[jc.Rel].Table.Schema
		offset = append(offset, pp.width)
		pp.width += rs.Len()
		acc = acc.Concat(rs)
	}
	return pp, nil
}

// probeScratch is one worker's reusable probe-chain state: the hash
// buffer for the vectorized cache-entry build and the two row-index
// vectors ping-ponged across chain levels. Before level d joins relation
// d, a partial tuple is d consecutive indices: for each of relations
// 0..d-1, the row it contributes, as an index into its cached batch.
type probeScratch struct {
	hashBuf []uint64
	cur     []int32
	next    []int32
}

// executeSubplan joins the subplan's cached segments by probing the
// per-object hash tables left to right, a chunk of root rows at a time,
// and appends result tuples. With DOP > 1 and more than one chunk of
// root rows, the chunks run on a worker pool.
func (m *manager) executeSubplan(sp subplan) {
	entries := make([]*cacheEntry, len(sp))
	for ri, si := range sp {
		id := m.objByRef[objRef{ri, si}]
		e, ok := m.cache[id]
		if !ok {
			panic(fmt.Sprintf("mjoin: executing subplan with uncached object %v", id))
		}
		if e.batch.Len() == 0 {
			return // an empty leg cannot produce output
		}
		entries[ri] = e
	}
	rootLen := entries[0].batch.Len()
	nChunks := (rootLen + probeChunk - 1) / probeChunk
	if m.dop <= 1 || nChunks <= 1 {
		for start := 0; start < rootLen; start += probeChunk {
			end := min(start+probeChunk, rootLen)
			m.probeLevels(entries, start, end, &m.scratches[0], &m.rows)
		}
		return
	}
	// Parallel path: workers claim chunk indices off a shared counter and
	// expand them with private scratch; results land in per-chunk slots
	// and are appended in chunk order, matching the serial output exactly.
	results := make([][]tuple.Row, nChunks)
	var nextChunk atomic.Int32
	var wg sync.WaitGroup
	workers := min(m.dop, nChunks)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sc := &m.scratches[w]
			for {
				c := int(nextChunk.Add(1)) - 1
				if c >= nChunks {
					return
				}
				start := c * probeChunk
				end := min(start+probeChunk, rootLen)
				m.probeLevels(entries, start, end, sc, &results[c])
			}
		}(w)
	}
	wg.Wait()
	for _, rs := range results {
		m.rows = append(m.rows, rs...)
	}
}

// probeLevels expands root rows [start, end) through every probe level as
// row-index tuples and appends the surviving tuples to *sink as
// full-width rows. Level d extends each partial in order by each of its
// matches in relation d in bucket (row) order, so the output keeps the
// lexicographic (root, match, ...) order of a nested-loop join. All
// mutable state lives in sc and sink, so concurrent calls over disjoint
// chunks with distinct scratches are race-free; entries and the probe
// plan are only read.
func (m *manager) probeLevels(entries []*cacheEntry, start, end int, sc *probeScratch, sink *[]tuple.Row) {
	cur := sc.cur[:0]
	for i := start; i < end; i++ {
		cur = append(cur, int32(i))
	}
	next := sc.next[:0]
	for depth := 1; depth < len(entries) && len(cur) > 0; depth++ {
		e := entries[depth]
		leftRel := m.probe.leftRel[depth-1]
		leftKeys := entries[leftRel].batch.Col(m.probe.leftCol[depth-1])
		keyCol := e.batch.Col(e.keyIdx)
		next = next[:0]
		for p := 0; p < len(cur); p += depth {
			partial := cur[p : p+depth]
			key := leftKeys[partial[leftRel]]
			for _, mi := range e.table[tuple.HashKey(key)] {
				mv := keyCol[mi]
				if mv.K != key.K || !tuple.Equal(key, mv) {
					continue // hash collision
				}
				next = append(next, partial...)
				next = append(next, mi)
			}
		}
		cur, next = next, cur
	}
	m.materialize(entries, cur, sink)
	sc.cur, sc.next = cur[:0], next[:0]
}

// materialize appends the rows of complete index tuples (one index per
// relation) to *sink. The rows share one value arena; each is capped at
// its own width, so appending to one cannot overwrite the next.
func (m *manager) materialize(entries []*cacheEntry, tuples []int32, sink *[]tuple.Row) {
	n := len(tuples) / len(entries)
	if n == 0 {
		return
	}
	w := m.probe.width
	arena := make([]tuple.Value, n*w)
	*sink = slices.Grow(*sink, n)
	for t := 0; t < n; t++ {
		row := arena[t*w : t*w : (t+1)*w]
		for r, idx := range tuples[t*len(entries) : (t+1)*len(entries)] {
			row = entries[r].batch.AppendRowTo(row, int(idx))
		}
		*sink = append(*sink, row)
	}
}

// filterRows applies the relation's local predicate.
func filterRows(pred expr.Expr, rows []tuple.Row) ([]tuple.Row, error) {
	if pred == nil {
		return rows, nil
	}
	var out []tuple.Row
	for _, r := range rows {
		keep, err := expr.EvalBool(pred, r)
		if err != nil {
			return nil, err
		}
		if keep {
			out = append(out, r)
		}
	}
	return out, nil
}
