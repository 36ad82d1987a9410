package experiments

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/objstore"
	"repro/internal/segment"
	"repro/internal/skipper"
	"repro/internal/workload"
)

// This file is the evaluation of the asynchronous execution pipeline
// (scheduler-aware prefetch + concurrent decode workers) behind
// `skipperbench -pipeline`, which first runs the gate table's pipeline
// rows as the CI divergence gate. The measurement half reports two
// different clocks — the simulated makespan (which prefetch may
// improve, by disclosing future demand to the device scheduler) and
// real wall-clock time (which the decode workers improve, by
// overlapping decode with compute and I/O waits).

// pipelinePrefetchBytes is the sweep's in-flight prefetch budget: room
// for four of the paper's 1 GB objects ahead of demand.
const pipelinePrefetchBytes = 4e9

// pipelineConfig is the pipeline-on configuration for these params.
func (p Params) pipelineConfig() *skipper.PipelineConfig {
	workers := p.Parallelism
	if workers < 2 {
		workers = 2
	}
	return &skipper.PipelineConfig{
		PrefetchBytes: pipelinePrefetchBytes,
		DecodeWorkers: workers,
		DecodeAhead:   2,
	}
}

// PipelinePoint is one measured configuration of the pipeline sweep.
type PipelinePoint struct {
	Mode skipper.Mode
	// On reports whether the pipeline was enabled.
	On bool
	// Makespan / AvgClient are simulated (virtual) times; Wall is the
	// real time the cluster run took on the host.
	Makespan  time.Duration
	AvgClient time.Duration
	Wall      time.Duration
	// DeviceGets counts GETs that reached the CSD (demand + prefetch).
	DeviceGets int
	// Switches is the device group-switch count.
	Switches int
	// PrefetchIssued / PrefetchServed / PrefetchUseful aggregate the
	// clients' prefetch counters.
	PrefetchIssued, PrefetchServed, PrefetchUseful int
	// Pipe is the wall-clock decode/stall breakdown.
	Pipe metrics.PipelineBreakdown
}

// measurePipeline runs one configuration and digests it into a point.
func (p Params) measurePipeline(ds *workload.Dataset, mode skipper.Mode, pc *skipper.PipelineConfig) (PipelinePoint, error) {
	res, _, err := p.runScenario(ds, Scenario{Mode: mode, DOP: max(p.Parallelism, 1), Prune: true, Pipeline: pc})
	if err != nil {
		return PipelinePoint{}, err
	}
	pt := PipelinePoint{
		Mode:       mode,
		On:         pc != nil,
		Makespan:   res.Makespan,
		AvgClient:  avgElapsed(res),
		Wall:       res.Wall,
		DeviceGets: res.CSD.GetsReceived,
		Switches:   res.CSD.GroupSwitches,
	}
	var agg engine.PipeStats
	for _, cs := range res.Clients {
		pt.PrefetchIssued += cs.PrefetchIssued
		pt.PrefetchServed += cs.PrefetchServed
		pt.PrefetchUseful += cs.PrefetchUseful
		agg.Add(cs.Pipe)
	}
	pt.Pipe = metrics.PipelineFrom(agg)
	return pt, nil
}

// PipelineSweepData verifies the divergence gate on every gate format,
// then measures both engines with the pipeline off and on over the
// decodedDataset and returns the four points.
func (p Params) PipelineSweepData() ([]PipelinePoint, error) {
	if err := p.verifyGate("pipeline"); err != nil {
		return nil, err
	}
	ds, err := p.decodedDataset()
	if err != nil {
		return nil, err
	}
	var out []PipelinePoint
	for _, mode := range []skipper.Mode{skipper.ModeVanilla, skipper.ModeSkipper} {
		for _, pc := range []*skipper.PipelineConfig{nil, p.pipelineConfig()} {
			pt, err := p.measurePipeline(ds, mode, pc)
			if err != nil {
				return nil, fmt.Errorf("%s pipeline=%v: %w", mode, pc != nil, err)
			}
			out = append(out, pt)
		}
	}
	return out, nil
}

// decodedDataset is the date-clustered dataset in the Params' format,
// except that FormatMem is promoted to FormatV2: in-memory segments have
// no decode work, so there would be nothing for the pipeline to overlap
// and no corrupt payload for a fault plan to flip.
func (p Params) decodedDataset() (*workload.Dataset, error) {
	f := p.Format
	if f == segment.FormatMem {
		f = segment.FormatV2
	}
	return objstore.ReencodeDataset(p.clusteredDataset(), f)
}

// PipelineReport renders PipelineSweepData (`skipperbench -pipeline`).
func (p Params) PipelineReport() (*Figure, error) {
	pts, err := p.PipelineSweepData()
	if err != nil {
		return nil, err
	}
	pc := p.pipelineConfig()
	f := &Figure{
		ID: "Pipeline sweep",
		Title: fmt.Sprintf("Asynchronous execution pipeline (%d tenants × %d passes, round-robin layout; prefetch %.0f GB ahead, %d decode workers)",
			scenarioClients, scenarioPasses, pipelinePrefetchBytes/1e9, pc.DecodeWorkers),
		Columns: []string{
			"engine", "pipeline", "makespan (s)", "avg client (s)", "wall (ms)",
			"device GETs", "switches", "prefetched", "pf served", "pf useful",
			"decode busy (ms)", "decode stall (ms)", "hidden (ms)", "overlap",
		},
		Notes: []string{
			"results verified byte-identical pipeline on/off across engines, formats (mem/v1/v2), DOP {1,4}, pruning on/off, 4 GB and 2 GB prefetch budgets and the shared cache on",
			"every run passes RunResult.Check: per client, device GETs received + refused == GETs issued - cache hits - prefetch served + prefetch issued",
			"makespan/avg client are simulated time (prefetch discloses demand to the scheduler); wall/decode columns are host time (decode workers overlap decode with compute)",
			fmt.Sprintf("host has %d CPU(s); decode overlap requires spare cores — on a single-core host decodes only run while the consumer blocks, so the overlap column reads 0%%", runtime.NumCPU()),
		},
	}
	ms := func(d time.Duration) string { return fmt.Sprintf("%.1f", float64(d.Microseconds())/1000) }
	for _, pt := range pts {
		state := "off"
		if pt.On {
			state = "on"
		}
		f.Rows = append(f.Rows, []string{
			fmt.Sprint(pt.Mode), state, secs(pt.Makespan), secs(pt.AvgClient), ms(pt.Wall),
			fmt.Sprint(pt.DeviceGets), fmt.Sprint(pt.Switches),
			fmt.Sprint(pt.PrefetchIssued), fmt.Sprint(pt.PrefetchServed), fmt.Sprint(pt.PrefetchUseful),
			ms(pt.Pipe.DecodeBusy), ms(pt.Pipe.DecodeStall), ms(pt.Pipe.Hidden),
			fmt.Sprintf("%.0f%%", 100*pt.Pipe.OverlapRatio()),
		})
	}
	return f, nil
}
