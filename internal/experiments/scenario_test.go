package experiments

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/skipper"
	"repro/internal/tuple"
)

// gateRow returns the named row of the gate table at the engine and DOP.
func gateRow(t *testing.T, p Params, gate, name string, mode skipper.Mode, dop int) GateRow {
	t.Helper()
	for _, r := range p.GateTable() {
		if r.Gate == gate && r.Name == name {
			return r.At(mode, dop)
		}
	}
	t.Fatalf("gate table has no %s/%s row", gate, name)
	return GateRow{}
}

// TestGateRejectsDivergence feeds the gate's verdict two real runs, then
// the same runs with one value of one row changed: the verdict must
// accept the first pair and name the client, query and row of the
// second.
func TestGateRejectsDivergence(t *testing.T) {
	p := Quick()
	ds, err := p.encoded(p.clusteredDataset())
	if err != nil {
		t.Fatal(err)
	}
	row := gateRow(t, p, "cache", "prune=true", skipper.ModeSkipper, 1)
	base, _, err := p.runScenario(ds, row.Base)
	if err != nil {
		t.Fatal(err)
	}
	variant, _, err := p.runScenario(ds, row.Variant)
	if err != nil {
		t.Fatal(err)
	}
	if err := row.verdict(base, variant, nil); err != nil {
		t.Fatalf("matching runs rejected: %v", err)
	}
	ci := len(variant.Clients) - 1
	cs := variant.Clients[ci]
	qi := len(cs.PerQuery) - 1
	for qi > 0 && len(cs.PerQuery[qi].Results) == 0 {
		qi--
	}
	q := &cs.PerQuery[qi]
	if len(q.Results) == 0 {
		t.Fatalf("client %d returned no rows to doctor", ci)
	}
	last := len(q.Results) - 1
	doctored := append(tuple.Row(nil), q.Results[last]...)
	doctored[0] = tuple.Str("doctored")
	q.Results = append(append([]tuple.Row(nil), q.Results[:last]...), doctored)
	err = row.verdict(base, variant, nil)
	want := fmt.Sprintf("client %d query %s: row %d", ci, q.QueryID, last)
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("got %v, want an error naming %q", err, want)
	}
}

// TestGateRejectsVacuousVariant: a variant that did not exercise its
// feature fails the gate even though its results match — here a
// pipeline row judged against a run without a pipeline.
func TestGateRejectsVacuousVariant(t *testing.T) {
	p := Quick()
	ds, err := p.encoded(p.clusteredDataset())
	if err != nil {
		t.Fatal(err)
	}
	row := gateRow(t, p, "pipeline", "prune=true", skipper.ModeVanilla, 1)
	base, _, err := p.runScenario(ds, row.Base)
	if err != nil {
		t.Fatal(err)
	}
	if err := row.verdict(base, base, nil); err == nil || !strings.Contains(err.Error(), "prefetched 0") {
		t.Fatalf("got %v, want the variant rejected for prefetching nothing", err)
	}
}

// TestBaselineKeepsAnEmptyFirstResult: a differential whose first
// configuration returns no rows must hold every later one to no rows.
func TestBaselineKeepsAnEmptyFirstResult(t *testing.T) {
	row := []tuple.Row{{tuple.Str("x")}}
	var b baseline
	if err := b.check(nil); err != nil {
		t.Fatalf("first result rejected: %v", err)
	}
	if err := b.check(row); err == nil {
		t.Fatal("non-empty result accepted against an empty baseline")
	}
	if err := b.check([]tuple.Row{}); err != nil {
		t.Fatalf("empty result after an empty baseline rejected: %v", err)
	}
	b = baseline{}
	if err := b.check(row); err != nil {
		t.Fatalf("first result rejected: %v", err)
	}
	if err := b.check(nil); err == nil {
		t.Fatal("empty result accepted against a non-empty baseline")
	}
}
