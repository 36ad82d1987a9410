package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/skipper"
	"repro/internal/trace"
)

// span is one timed call the traced run made into a layer, or one span
// the program recorded inside such a call. Spans of one operation share
// Op; Parent 0 marks an operation's root.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int64  `json:"op"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // from the tracer's origin
	End    int64  `json:"end_ns"`
}

// tracer keeps the traced run's spans in memory until the run ends.
type tracer struct {
	origin time.Time
	ops    atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// op returns a fresh operation id.
func (t *tracer) op() int64 { return t.ops.Add(1) }

// add records a span and returns its id.
func (t *tracer) add(op int64, parent int, layer, name string, start, end time.Time) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Op: op, Layer: layer, Name: name,
		Start: int64(start.Sub(t.origin)), End: int64(end.Sub(t.origin)),
	})
	return id
}

// reserve allocates a span id to fill once the span has ended, so that
// spans recorded meanwhile can name it as their parent.
func (t *tracer) reserve() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1})
	return len(t.spans)
}

// fill completes a reserved span.
func (t *tracer) fill(id int, op int64, parent int, layer, name string, start, end time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1] = span{
		ID: id, Parent: parent, Op: op, Layer: layer, Name: name,
		Start: int64(start.Sub(t.origin)), End: int64(end.Sub(t.origin)),
	}
}

// adopt nests a span tree the program recorded under parent. base is the
// wall instant the program's offsets count from.
func (t *tracer) adopt(op int64, parent int, base time.Time, e *trace.Export) {
	if e == nil {
		return
	}
	ids := make(map[int]int, len(e.Spans))
	for _, sp := range e.Spans {
		ids[sp.ID] = t.add(op, 0, programLayer(sp), sp.Cat+" "+sp.Name,
			base.Add(sp.WallStart), base.Add(sp.WallEnd))
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, sp := range e.Spans {
		p, ok := ids[sp.Parent]
		if !ok {
			p = parent
		}
		t.spans[ids[sp.ID]-1].Parent = p
	}
}

// programLayer names the module a span the program recorded belongs to.
func programLayer(sp trace.Span) string {
	switch sp.Cat {
	case trace.CatAdmission, trace.CatDrain:
		return "server"
	case trace.CatPlan:
		return "sql"
	case trace.CatQuery, trace.CatPrefetch, trace.CatRetry:
		return "skipper"
	case trace.CatExecute:
		if sp.Name == skipper.ModeVanilla.String() {
			return "engine"
		}
		return "mjoin"
	case trace.CatCycle:
		return "mjoin"
	case trace.CatFetch, trace.CatStall:
		return "csd"
	case trace.CatDecode:
		return "segment"
	case trace.CatOp:
		return "engine"
	}
	return "other"
}

// selfTimes sums, per layer, each span's duration minus the part of it
// its children cover.
func (t *tracer) selfTimes() map[string]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	kids := make(map[int][]span)
	for _, sp := range t.spans {
		if sp.Parent != 0 {
			kids[sp.Parent] = append(kids[sp.Parent], sp)
		}
	}
	self := make(map[string]time.Duration)
	for _, sp := range t.spans {
		self[sp.Layer] += time.Duration(sp.End - sp.Start - covered(sp, kids[sp.ID]))
	}
	return self
}

// covered returns how much of sp's interval the union of its children
// covers.
func covered(sp span, children []span) int64 {
	type iv struct{ from, to int64 }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		from, to := max(c.Start, sp.Start), min(c.End, sp.End)
		if to > from {
			ivs = append(ivs, iv{from, to})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].from < ivs[j].from })
	var total, end int64
	for _, v := range ivs {
		if v.from > end {
			end = v.from
		}
		if v.to > end {
			total += v.to - end
			end = v.to
		}
	}
	return total
}

// printSelfTimes prints the self time of each layer, in total and per
// operation.
func (t *tracer) printSelfTimes() {
	self := t.selfTimes()
	layers := make([]string, 0, len(self))
	var total time.Duration
	for l, d := range self {
		layers = append(layers, l)
		total += d
	}
	sort.Slice(layers, func(i, j int) bool { return self[layers[i]] > self[layers[j]] })
	ops := t.ops.Load()
	fmt.Printf("# self time per layer over %d traced operations\n", ops)
	for _, l := range layers {
		fmt.Printf("#   %-8s %10.3f ms  %5.1f%%  %9.1f us/op\n", l, msOf(self[l]),
			100*ratio(float64(self[l]), float64(total)), ratio(usOf(self[l]), float64(ops)))
	}
}

// write saves the spans as JSON under dir and returns the file's path.
func (t *tracer) write(dir, workload string, seed int64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("write spans: %w", err)
	}
	path := filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d.json", workload, seed))
	t.mu.Lock()
	b, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{workload, seed, t.spans})
	t.mu.Unlock()
	if err != nil {
		return "", fmt.Errorf("write spans: %w", err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return "", fmt.Errorf("write spans: %w", err)
	}
	return path, nil
}
