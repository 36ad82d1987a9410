package engine

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/stats"
)

// planNode is implemented by every operator: it describes the operator
// for plan display and names its inputs for plan walks.
type planNode interface {
	label() string
	inputs() []Iterator
}

// walkPlan calls fn on every operator of the plan rooted at it, parents
// before children, with each operator's depth below the root. It is the
// one traversal behind Explain, EnableAnalyze, Parallelize and SeqScans.
func walkPlan(it Iterator, fn func(op Iterator, depth int)) {
	var walk func(op Iterator, depth int)
	walk = func(op Iterator, depth int) {
		fn(op, depth)
		if n, ok := op.(planNode); ok {
			for _, c := range n.inputs() {
				walk(c, depth+1)
			}
		}
	}
	walk(it, 0)
}

// Explain renders the operator tree as an indented plan, similar to
// EXPLAIN output in classical engines.
func Explain(it Iterator) string { return renderPlan(it, false) }

// ExplainAnalyze renders the plan tree with per-operator measurements —
// the EXPLAIN ANALYZE output. Operators that were never armed show no
// measurements; armed operators of a plan rendered before draining show
// zeros.
func ExplainAnalyze(it Iterator) string { return renderPlan(it, true) }

// renderPlan is the shared renderer of Explain and ExplainAnalyze: one
// line per operator, indented by depth, with the measurement suffix on
// armed operators when withStats is set.
func renderPlan(it Iterator, withStats bool) string {
	var sb strings.Builder
	walkPlan(it, func(op Iterator, depth int) {
		label := fmt.Sprintf("%T", op)
		if n, ok := op.(planNode); ok {
			label = n.label()
		}
		fmt.Fprintf(&sb, "%s-> %s", strings.Repeat("  ", depth), label)
		if a, ok := op.(analyzable); ok && withStats {
			if st := *a.opStats(); st != nil {
				fmt.Fprintf(&sb, "  (rows=%d batches=%d bytes=%d time=%s)",
					st.Rows, st.Batches, st.Bytes, st.Time.Round(time.Microsecond))
			}
		}
		sb.WriteByte('\n')
	})
	return sb.String()
}

func (s *SeqScan) label() string {
	label := fmt.Sprintf("SeqScan %s (%d segments, %d rows)", s.table.Name, len(s.table.Objects), s.table.RowCount)
	if s.Pruner != nil {
		total := len(s.table.Objects)
		label += fmt.Sprintf(" [prune %d/%d segments on %s]",
			stats.CountSkipped(s.Pruner, total), total, s.Pruner.Predicate())
	}
	if s.Project != nil {
		names := make([]string, len(s.Project))
		for i, ci := range s.Project {
			names[i] = s.table.Schema.Cols[ci].Name
		}
		label += fmt.Sprintf(" [project %d/%d cols: %s]",
			len(s.Project), s.table.Schema.Len(), strings.Join(names, ","))
	}
	return label
}

func (f *Filter) label() string { return fmt.Sprintf("Filter %s", f.pred) }

func (pr *Project) label() string {
	parts := make([]string, len(pr.cols))
	for i, c := range pr.cols {
		parts[i] = fmt.Sprintf("%s=%s", c.Name, c.E)
	}
	return "Project " + strings.Join(parts, ", ")
}

func (l *Limit) label() string { return fmt.Sprintf("Limit %d", l.n) }

func (d *Distinct) label() string { return "Distinct" }

func (v *Values) label() string { return fmt.Sprintf("Values (%d rows)", len(v.rows)) }

// dopSuffix annotates parallel operators in plan displays; serial
// operators stay unmarked so DOP=1 plans render exactly as before.
func dopSuffix(dop int) string {
	if dop > 1 {
		return fmt.Sprintf(" [dop=%d]", dop)
	}
	return ""
}

func (j *HashJoin) label() string {
	pairs := make([]string, len(j.leftKeys))
	for i := range j.leftKeys {
		pairs[i] = fmt.Sprintf("%s=%s",
			j.left.Schema().Cols[j.leftKeys[i]].Name,
			j.right.Schema().Cols[j.rightKeys[i]].Name)
	}
	return "HashJoin on " + strings.Join(pairs, ", ") + dopSuffix(j.dop)
}

func (a *HashAgg) label() string {
	var parts []string
	for _, g := range a.groups {
		parts = append(parts, "group:"+g.Name)
	}
	for _, spec := range a.aggs {
		if spec.Arg != nil {
			parts = append(parts, fmt.Sprintf("%s(%s)", spec.Kind, spec.Arg))
		} else {
			parts = append(parts, fmt.Sprintf("%s(*)", spec.Kind))
		}
	}
	return "HashAgg " + strings.Join(parts, ", ") + dopSuffix(a.dop)
}

func (s *Sort) label() string {
	parts := make([]string, len(s.keys))
	for i, k := range s.keys {
		dir := "asc"
		if k.Desc {
			dir = "desc"
		}
		parts[i] = fmt.Sprintf("%s %s", k.E, dir)
	}
	return "Sort " + strings.Join(parts, ", ")
}

func (s *SeqScan) inputs() []Iterator  { return nil }
func (v *Values) inputs() []Iterator   { return nil }
func (f *Filter) inputs() []Iterator   { return []Iterator{f.child} }
func (pr *Project) inputs() []Iterator { return []Iterator{pr.child} }
func (l *Limit) inputs() []Iterator    { return []Iterator{l.child} }
func (d *Distinct) inputs() []Iterator { return []Iterator{d.child} }
func (s *Sort) inputs() []Iterator     { return []Iterator{s.child} }
func (a *HashAgg) inputs() []Iterator  { return []Iterator{a.child} }
func (j *HashJoin) inputs() []Iterator { return []Iterator{j.left, j.right} }
