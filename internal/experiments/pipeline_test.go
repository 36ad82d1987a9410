package experiments

import (
	"testing"

	"repro/internal/skipper"
)

// TestPipelineSweepQuick runs the full `skipperbench -pipeline` path at
// quick scale: the divergence gate (pipeline on/off × engines × v1/v2 ×
// DOP × pruning) followed by the four measurement points — and asserts
// the pipeline-on runs actually prefetched, decoded concurrently, and
// improved (or at least did not regress) the simulated makespan.
func TestPipelineSweepQuick(t *testing.T) {
	p := Quick()
	pts, err := p.PipelineSweepData()
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 4 {
		t.Fatalf("sweep produced %d points, want 4", len(pts))
	}
	for i := 0; i < len(pts); i += 2 {
		off, on := pts[i], pts[i+1]
		if off.On || !on.On {
			t.Fatalf("point order wrong: %+v / %+v", off, on)
		}
		if off.Mode != on.Mode {
			t.Fatalf("mode mismatch: %v vs %v", off.Mode, on.Mode)
		}
		// The serial baseline decodes inline: every decode stalls for its
		// full duration, nothing is hidden, nothing is prefetched.
		if off.PrefetchIssued != 0 || off.Pipe.Hidden != 0 || off.Pipe.Overlapped != 0 {
			t.Fatalf("%v pipeline-off point recorded pipeline work: %+v", off.Mode, off)
		}
		if off.Pipe.DecodeBusy != off.Pipe.DecodeStall {
			t.Fatalf("%v: serial baseline stall != busy: %+v", off.Mode, off.Pipe)
		}
		if on.PrefetchIssued == 0 {
			t.Fatalf("%v pipeline-on point issued no prefetches: %+v", on.Mode, on)
		}
		if on.PrefetchServed+on.PrefetchUseful == 0 {
			t.Fatalf("%v: no prefetch was ever consumed: %+v", on.Mode, on)
		}
		if on.Pipe.Decodes == 0 || on.Pipe.DecodeBusy <= 0 {
			t.Fatalf("%v pipeline-on point recorded no decode work: %+v", on.Mode, on)
		}
		// Prefetch discloses demand early; it must never make the
		// simulated schedule worse.
		if on.Makespan > off.Makespan {
			t.Fatalf("%v: pipeline worsened makespan: %v > %v", on.Mode, on.Makespan, off.Makespan)
		}
		if on.Wall <= 0 || off.Wall <= 0 {
			t.Fatalf("%v: missing wall-clock measurement", on.Mode)
		}
	}
}

// TestPipelineConfigDefaults pins the derived pipeline-on configuration.
func TestPipelineConfigDefaults(t *testing.T) {
	p := Quick()
	pc := p.pipelineConfig()
	if pc.PrefetchBytes != pipelinePrefetchBytes || pc.DecodeWorkers < 2 || pc.DecodeAhead != 2 {
		t.Fatalf("unexpected config %+v", pc)
	}
	p.Parallelism = 8
	if got := p.pipelineConfig().DecodeWorkers; got != 8 {
		t.Fatalf("workers %d, want parallelism 8", got)
	}
}

// TestPipelineAccountingRejectsImbalance: a pipelined run built by the
// scenario harness passes RunResult.Check, and the same result with one
// unaccounted prefetch does not.
func TestPipelineAccountingRejectsImbalance(t *testing.T) {
	p := Quick()
	ds, err := p.encoded(p.clusteredDataset())
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := p.runScenario(ds, Scenario{Mode: skipper.ModeSkipper, DOP: 1, Prune: true, Pipeline: p.pipelineConfig()})
	if err != nil {
		t.Fatalf("balanced run rejected: %v", err)
	}
	res.Clients[0].PrefetchIssued++
	if err := res.Check(); err == nil {
		t.Fatal("doctored run passed the accounting check")
	}
}
