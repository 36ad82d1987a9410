package engine

import (
	"slices"
	"sort"
	"strconv"

	"repro/internal/expr"
	"repro/internal/tuple"
)

// AggKind enumerates aggregate functions.
type AggKind uint8

const (
	// AggCount counts input rows (COUNT(*) with a nil Arg).
	AggCount AggKind = iota
	// AggSum sums the argument as float64.
	AggSum
	// AggMin keeps the smallest argument value seen.
	AggMin
	// AggMax keeps the largest argument value seen.
	AggMax
	// AggAvg reports sum/count of the argument as float64.
	AggAvg
)

// String returns the SQL-ish lowercase name of the aggregate.
func (k AggKind) String() string {
	return [...]string{"count", "sum", "min", "max", "avg"}[k]
}

// AggSpec is one aggregate output: Kind applied to Arg (nil for COUNT(*)).
// ArgKind declares the argument's type for MIN/MAX, whose output kind is
// data-dependent (it defaults to int64, the zero Kind).
type AggSpec struct {
	// Kind selects the aggregate function.
	Kind AggKind
	// Arg is the aggregated expression; nil means COUNT(*).
	Arg expr.Expr
	// Name labels the output column.
	Name string
	// ArgKind declares Arg's value kind (used by MIN/MAX output typing).
	ArgKind tuple.Kind
}

// GroupCol is one grouping column of a HashAgg.
type GroupCol struct {
	// Name labels the output column.
	Name string
	// Kind is the grouping expression's value kind.
	Kind tuple.Kind
	// E computes the grouping value from an input row.
	E expr.Expr
}

// HashAgg is a blocking hash aggregation with deterministic (sorted by
// group key) output order. The child is drained batch-at-a-time. With
// Parallelize(dop > 1) the drain runs on the morsel pool: every worker
// folds its morsels into a private accumulator map and the partial
// states are merged at drain time, so the sorted output is identical at
// any DOP.
type HashAgg struct {
	child  Iterator
	groups []GroupCol
	aggs   []AggSpec
	schema *tuple.Schema
	dop    int

	out    []tuple.Row
	idx    int
	ob     *tuple.Batch
	ostats *OpStats
}

// NewHashAgg builds a grouped aggregation. With no group columns it
// produces exactly one row (global aggregates).
func NewHashAgg(child Iterator, groups []GroupCol, aggs []AggSpec) *HashAgg {
	cols := make([]tuple.Column, 0, len(groups)+len(aggs))
	for _, g := range groups {
		cols = append(cols, tuple.Column{Name: g.Name, Kind: g.Kind})
	}
	for _, a := range aggs {
		cols = append(cols, tuple.Column{Name: a.Name, Kind: aggOutputKind(a)})
	}
	return &HashAgg{child: child, groups: groups, aggs: aggs, schema: tuple.NewSchema(cols...)}
}

// aggOutputKind: COUNT yields int64, SUM/AVG yield float64, MIN/MAX yield
// the argument's declared kind.
func aggOutputKind(a AggSpec) tuple.Kind {
	switch a.Kind {
	case AggCount:
		return tuple.KindInt64
	case AggSum, AggAvg:
		return tuple.KindFloat64
	default:
		return a.ArgKind
	}
}

// Schema implements Iterator.
func (a *HashAgg) Schema() *tuple.Schema { return a.schema }

// setParallelism implements parallelizable.
func (a *HashAgg) setParallelism(dop int) { a.dop = normDOP(dop) }

// accum is one group's accumulator state: its group values and one
// aggState per aggregate.
type accum struct {
	groupV tuple.Row
	st     []aggState
}

// aggState is one aggregate's running state within a group. COUNT and
// AVG are derived from count and sum at emit time; minmax is meaningful
// once count > 0.
type aggState struct {
	count  int64
	sum    float64
	minmax tuple.Value
}

// newAccum returns an empty accumulator for the group with values gv.
func (a *HashAgg) newAccum(gv tuple.Row) *accum {
	return &accum{groupV: gv, st: make([]aggState, len(a.aggs))}
}

// foldScratch is the per-drain scratch of foldRow: the group key and
// values of the row being folded. Each parallel worker owns one.
type foldScratch struct {
	key []byte
	gv  tuple.Row
}

// appendGroupKey appends v's part of a group key to dst. Output order is
// the sorted order of these keys, so their bytes fix GROUP BY order.
func appendGroupKey(dst []byte, v tuple.Value) []byte {
	dst = strconv.AppendInt(dst, int64(v.K), 10)
	dst = append(dst, '|')
	dst = v.AppendString(dst)
	return append(dst, 0)
}

// foldRow folds one input row into the accumulator map. It touches only
// groups, sc and the row, so each parallel worker can fold into a
// private map with a private scratch without locking. The key and group
// values are copied out of the scratch only when a new group starts.
func (a *HashAgg) foldRow(groups map[string]*accum, sc *foldScratch, row tuple.Row) error {
	sc.key, sc.gv = sc.key[:0], sc.gv[:0]
	for _, g := range a.groups {
		v, err := g.E.Eval(row)
		if err != nil {
			return err
		}
		sc.gv = append(sc.gv, v)
		sc.key = appendGroupKey(sc.key, v)
	}
	acc, ok := groups[string(sc.key)]
	if !ok {
		acc = a.newAccum(slices.Clone(sc.gv))
		groups[string(sc.key)] = acc
	}
	for i, spec := range a.aggs {
		var v tuple.Value
		if spec.Arg != nil {
			var err error
			v, err = spec.Arg.Eval(row)
			if err != nil {
				return err
			}
		}
		st := &acc.st[i]
		switch spec.Kind {
		case AggSum, AggAvg:
			st.sum += v.AsFloat()
		case AggMin:
			if st.count == 0 || tuple.Compare(v, st.minmax) < 0 {
				st.minmax = v
			}
		case AggMax:
			if st.count == 0 || tuple.Compare(v, st.minmax) > 0 {
				st.minmax = v
			}
		}
		st.count++
	}
	return nil
}

// mergeAccum folds src into dst: counts and sums add and MIN/MAX
// compare — the partial-state merge of the parallel drain. COUNT and AVG
// need no special casing because both are derived from count and sum at
// emit time.
func (a *HashAgg) mergeAccum(dst, src *accum) {
	for i, spec := range a.aggs {
		d, s := &dst.st[i], &src.st[i]
		switch spec.Kind {
		case AggMin:
			if s.count > 0 && (d.count == 0 || tuple.Compare(s.minmax, d.minmax) < 0) {
				d.minmax = s.minmax
			}
		case AggMax:
			if s.count > 0 && (d.count == 0 || tuple.Compare(s.minmax, d.minmax) > 0) {
				d.minmax = s.minmax
			}
		}
		d.count += s.count
		d.sum += s.sum
	}
}

// drainSerial aggregates the child on the calling goroutine (DOP=1).
func (a *HashAgg) drainSerial() (map[string]*accum, error) {
	groups := make(map[string]*accum)
	var sc foldScratch
	err := drainBatches(a.child, func(row tuple.Row) error {
		return a.foldRow(groups, &sc, row)
	})
	if err != nil {
		return nil, err
	}
	return groups, nil
}

// drainParallel aggregates the child on the morsel pool: the child is
// still pulled by the calling goroutine (so Fetcher/Clock stay on it),
// workers fold private maps, and the partials are merged serially at the
// end.
func (a *HashAgg) drainParallel() (map[string]*accum, error) {
	maps := make([]map[string]*accum, a.dop)
	rows := make([]tuple.Row, a.dop)
	scratch := make([]foldScratch, a.dop)
	for w := range maps {
		maps[w] = make(map[string]*accum)
	}
	if err := a.child.Open(); err != nil {
		a.child.Close()
		return nil, err
	}
	err := runMorsels(a.child, a.dop, func(w int, b *tuple.Batch) error {
		n := b.Len()
		for i := 0; i < n; i++ {
			rows[w] = b.AppendRowTo(rows[w][:0], i)
			if err := a.foldRow(maps[w], &scratch[w], rows[w]); err != nil {
				return err
			}
		}
		return nil
	})
	if cerr := a.child.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	groups := maps[0]
	for _, m := range maps[1:] {
		for key, acc := range m {
			if dst, ok := groups[key]; ok {
				a.mergeAccum(dst, acc)
			} else {
				groups[key] = acc
			}
		}
	}
	return groups, nil
}

// Open implements Iterator: drains the child batch-at-a-time and
// aggregates, then renders the sorted output rows.
func (a *HashAgg) Open() error {
	var groups map[string]*accum
	var err error
	if a.dop > 1 {
		groups, err = a.drainParallel()
	} else {
		groups, err = a.drainSerial()
	}
	if err != nil {
		return err
	}
	// Global aggregation over zero rows still yields one row of zeros.
	if len(a.groups) == 0 && len(groups) == 0 {
		groups[""] = a.newAccum(nil)
	}
	keys := make([]string, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	// All output rows share one arena.
	width := len(a.groups) + len(a.aggs)
	arena := make([]tuple.Value, len(keys)*width)
	a.out = a.out[:0]
	for gi, k := range keys {
		acc := groups[k]
		row := arena[gi*width : gi*width : (gi+1)*width]
		row = append(row, acc.groupV...)
		for i, spec := range a.aggs {
			st := acc.st[i]
			switch spec.Kind {
			case AggCount:
				row = append(row, tuple.Int(st.count))
			case AggSum:
				row = append(row, tuple.Float(st.sum))
			case AggAvg:
				if st.count == 0 {
					row = append(row, tuple.Float(0))
				} else {
					row = append(row, tuple.Float(st.sum/float64(st.count)))
				}
			case AggMin, AggMax:
				row = append(row, st.minmax)
			}
		}
		a.out = append(a.out, row)
	}
	a.idx = 0
	return nil
}

// NextBatch implements Iterator.
func (a *HashAgg) NextBatch() (*tuple.Batch, bool, error) {
	if a.ostats != nil {
		return timedBatch(a.ostats, a.nextBatch)
	}
	return a.nextBatch()
}

func (a *HashAgg) nextBatch() (*tuple.Batch, bool, error) {
	return serveRowSlice(&a.ob, a.schema, a.out, &a.idx)
}

// Close implements Iterator.
func (a *HashAgg) Close() error {
	a.out = nil
	return nil
}
