package experiments

import (
	"fmt"
	"time"

	"repro/internal/faults"
	"repro/internal/skipper"
	"repro/internal/workload"
)

// This file is the evaluation of the fault-injection and recovery layer
// behind `skipperbench -faults`, which first runs the gate table's fault
// rows as the CI chaos gate: a retryable-only fault plan (transient GET
// failures, latency stalls, bit-flipped payloads, all capped per
// object) must leave every query result byte-identical to the clean
// run, with GET conservation extended to the re-requests. The
// measurement half sweeps the fault rate and reports the cost of
// surviving: extra device transfers, retry backoff, and the makespan
// degradation, plus a crash/restart row (the device dies mid-run and
// comes back) at the end.

// faultSweepSeed keys every sweep decision; one seed, one schedule.
const faultSweepSeed = 99

// faultPlan builds the retryable-only plan at intensity rate: transfers
// fail transiently at the full rate, stall and corrupt at half of it,
// with the per-object cap keeping bounded retries convergent.
func faultPlan(rate float64) faults.Plan {
	return faults.Plan{
		Seed:               faultSweepSeed,
		TransientRate:      rate,
		StallRate:          rate / 2,
		Stall:              3 * time.Second,
		CorruptRate:        rate / 2,
		MaxFaultsPerObject: 3,
	}
}

// crashPlan is the sweep's crash/restart scenario: a clean device that
// dies at 60 s of simulated time and restarts 30 s later.
func crashPlan() faults.Plan {
	return faults.Plan{Seed: faultSweepSeed, CrashAt: 60 * time.Second, CrashDowntime: 30 * time.Second}
}

// faultRetryPolicy rides out the sweep's fault plans: attempts beyond
// the per-object cap, backoff deep enough to sleep across the crash
// downtime, no per-query budget.
func faultRetryPolicy() *skipper.RetryPolicy {
	return &skipper.RetryPolicy{
		MaxAttempts: 40,
		BaseBackoff: 500 * time.Millisecond,
		MaxBackoff:  8 * time.Second,
		Budget:      -1,
	}
}

// FaultPoint is one measured configuration of the fault-rate sweep.
type FaultPoint struct {
	// Label names the scenario ("clean", a fault rate, or "crash").
	Label string
	Mode  skipper.Mode
	// Makespan / AvgClient are simulated times; the degradation the
	// sweep measures is their growth over the clean row.
	Makespan  time.Duration
	AvgClient time.Duration
	// DeviceGets counts GETs the device received (retries included).
	DeviceGets int
	// Transient / Stalls / Corrupt are injected fault counts; Crashes /
	// Restarts come from the device.
	Transient, Stalls, Corrupt int64
	Crashes, Restarts          int
	// Retries / Backoff aggregate the clients' recovery effort.
	Retries int
	Backoff time.Duration
}

// measureFaults runs one scenario and digests it into a point.
func (p Params) measureFaults(ds *workload.Dataset, mode skipper.Mode, label string, plan faults.Plan) (FaultPoint, error) {
	res, cl, err := p.runScenario(ds, Scenario{
		Mode: mode, DOP: max(p.Parallelism, 1), Prune: true, SharedCache: p.CacheObjects,
		Pipeline: p.pipelineConfig(), Faults: plan, Retry: faultRetryPolicy(),
	})
	if err != nil {
		return FaultPoint{}, err
	}
	pt := FaultPoint{
		Label:      label,
		Mode:       mode,
		Makespan:   res.Makespan,
		AvgClient:  avgElapsed(res),
		DeviceGets: res.CSD.GetsReceived,
		Crashes:    res.CSD.Crashes,
		Restarts:   res.CSD.Restarts,
	}
	if inj := cl.CSD.Faults; inj != nil {
		st := inj.Stats()
		pt.Transient, pt.Stalls, pt.Corrupt = st.Transient, st.Stalls, st.Corrupt
	}
	for _, cs := range res.Clients {
		pt.Retries += cs.Retries
		pt.Backoff += cs.RetryBackoff
	}
	return pt, nil
}

// FaultSweepData verifies the chaos gate on every gate format, then
// measures the skipper engine (pipeline on) over the decodedDataset
// under increasing fault rates plus the crash/restart scenario.
func (p Params) FaultSweepData() ([]FaultPoint, error) {
	if err := p.verifyGate("faults"); err != nil {
		return nil, err
	}
	ds, err := p.decodedDataset()
	if err != nil {
		return nil, err
	}
	scenarios := []struct {
		label string
		plan  faults.Plan
	}{
		{"clean", faults.Plan{}},
		{"rate 0.2", faultPlan(0.2)},
		{"rate 0.4", faultPlan(0.4)},
		{"rate 0.6", faultPlan(0.6)},
		{"crash+restart", crashPlan()},
	}
	var out []FaultPoint
	for _, sc := range scenarios {
		pt, err := p.measureFaults(ds, skipper.ModeSkipper, sc.label, sc.plan)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", sc.label, err)
		}
		out = append(out, pt)
	}
	return out, nil
}

// FaultReport renders FaultSweepData (`skipperbench -faults`).
func (p Params) FaultReport() (*Figure, error) {
	pts, err := p.FaultSweepData()
	if err != nil {
		return nil, err
	}
	f := &Figure{
		ID: "Fault sweep",
		Title: fmt.Sprintf("Fault injection and recovery (%d tenants × %d passes, round-robin layout, skipper engine, pipeline on; per-object fault cap 3, retry backoff 500ms..8s)",
			scenarioClients, scenarioPasses),
		Columns: []string{
			"scenario", "makespan (s)", "avg client (s)", "device GETs",
			"transient", "stalls", "corrupt", "crashes", "retries", "backoff (s)",
		},
	}
	var clean time.Duration
	for i, pt := range pts {
		if i == 0 {
			clean = pt.Makespan
		}
		makespan := fmt.Sprintf("%.1f", pt.Makespan.Seconds())
		if i > 0 && clean > 0 {
			makespan += fmt.Sprintf(" (+%.0f%%)", 100*(pt.Makespan.Seconds()-clean.Seconds())/clean.Seconds())
		}
		f.Rows = append(f.Rows, []string{
			pt.Label,
			makespan,
			fmt.Sprintf("%.1f", pt.AvgClient.Seconds()),
			fmt.Sprintf("%d", pt.DeviceGets),
			fmt.Sprintf("%d", pt.Transient),
			fmt.Sprintf("%d", pt.Stalls),
			fmt.Sprintf("%d", pt.Corrupt),
			fmt.Sprintf("%d/%d", pt.Crashes, pt.Restarts),
			fmt.Sprintf("%d", pt.Retries),
			fmt.Sprintf("%.1f", pt.Backoff.Seconds()),
		})
	}
	f.Notes = append(f.Notes,
		"results verified byte-identical clean vs faulted across engines, formats (mem/v1/v2), DOP {1,4} and pipeline off/on, under this sweep's retry policy and, at a 0.25 corruption rate, the default one",
		"every run passes RunResult.Check: per client, device GETs received + refused == GETs issued - cache hits - prefetch served + prefetch issued (a retry is both a client GET and a device GET)",
	)
	return f, nil
}
