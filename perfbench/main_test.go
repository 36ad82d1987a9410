package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"
)

// benchmarkFile is the part of BENCHMARK.json the smoke test checks
// the output against.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadBenchmark(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// TestEveryMetricEmitted runs each workload briefly, untraced and
// traced, and checks that the run passed its oracle and guards and
// emitted exactly the metrics BENCHMARK.json names, with their units.
func TestEveryMetricEmitted(t *testing.T) {
	bf := loadBenchmark(t)
	for _, wl := range bf.Workloads {
		for _, traced := range []bool{false, true} {
			name := wl.Name + "/untraced"
			want := map[string]string{}
			for _, m := range bf.EndToEnd {
				want[m.Name] = m.Unit
			}
			if traced {
				name = wl.Name + "/traced"
				want = map[string]string{}
				for _, m := range bf.PerLayer {
					want[m.Name] = m.Unit
				}
			}
			t.Run(name, func(t *testing.T) {
				run, ok := workloads[wl.Name]
				if !ok {
					t.Fatalf("BENCHMARK.json names workload %q the benchmark does not run", wl.Name)
				}
				res, err := run(options{workload: wl.Name, seed: 7, seconds: 1, trace: traced})
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				for name, unit := range want {
					m, ok := res.Metrics[name]
					switch {
					case !ok:
						t.Errorf("metric %s not emitted", name)
					case m.Unit != unit:
						t.Errorf("metric %s has unit %q, BENCHMARK.json says %q", name, m.Unit, unit)
					case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
						t.Errorf("metric %s is %v", name, m.Value)
					}
				}
				for name := range res.Metrics {
					if _, ok := want[name]; !ok {
						t.Errorf("metric %s emitted but not in BENCHMARK.json", name)
					}
				}
				if _, err := encodeResult(res); err != nil {
					t.Error(err)
				}
			})
		}
	}
}

// TestOracleCatchesWrongRows checks that a served result differing from
// the oracle counts as failed and makes the run incorrect.
func TestOracleCatchesWrongRows(t *testing.T) {
	env, err := buildServe(serveHot, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer env.close()
	for i := range env.oracle {
		env.oracle[i] = append([]string{"(no such row)"}, env.oracle[i]...)
	}
	p, err := env.drive(200*time.Millisecond, nil)
	if err != nil {
		t.Fatal(err)
	}
	if p.failed == 0 || p.ok != 0 {
		t.Errorf("ok=%d failed=%d, want every statement failed", p.ok, p.failed)
	}
	if env.outcome(p).Correct {
		t.Error("run with wrong rows reported correct")
	}
}

// TestGuardsCatchVacuousRuns checks that each guard trips when the layer
// it protects is not exercised.
func TestGuardsCatchVacuousRuns(t *testing.T) {
	t.Run("serve_hot without a cache", func(t *testing.T) {
		sp := serveHot
		sp.segCache = 0
		env, err := buildServe(sp, 3)
		if err != nil {
			t.Fatal(err)
		}
		defer env.close()
		p, err := env.drive(200*time.Millisecond, nil)
		if err != nil {
			t.Fatal(err)
		}
		if env.guard(p) == "" {
			t.Error("guard passed a serve_hot run with no cache hits")
		}
	})
	t.Run("serve_cold with every object cached", func(t *testing.T) {
		sp := serveCold
		sp.segCache = 64
		env, err := buildServe(sp, 3)
		if err != nil {
			t.Fatal(err)
		}
		defer env.close()
		p, err := env.drive(200*time.Millisecond, nil)
		if err != nil {
			t.Fatal(err)
		}
		if env.guard(p) == "" {
			t.Error("guard passed a serve_cold run that never reached the device")
		}
	})
	t.Run("batch_mt", func(t *testing.T) {
		env, err := buildBatch(3)
		if err != nil {
			t.Fatal(err)
		}
		res, _, err := env.run(nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, failed, msg := env.check(res); failed != 0 || msg != "" {
			t.Fatalf("clean run failed its checks: %d wrong, %q", failed, msg)
		}
		res.CSD.GetsByTenant[0]++
		if _, _, msg := env.check(res); msg == "" {
			t.Error("GET conservation check passed a run with an extra device GET")
		}
		res.CSD.GetsByTenant[0]--
		res.CSD.GroupSwitches = 0
		if _, _, msg := env.check(res); msg == "" {
			t.Error("guard passed a run with no group switch")
		}
		res, _, err = env.run(nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, cs := range res.Clients {
			cs.PrefetchIssued, cs.PrefetchServed = 0, 0
			res.CSD.GetsByTenant[cs.Tenant] = cs.GetsIssued - cs.CacheHits
		}
		if _, _, msg := env.check(res); msg != "the prefetcher issued no GET" {
			t.Errorf("run with no prefetch: check says %q", msg)
		}
		res, _, err = env.run(nil)
		if err != nil {
			t.Fatal(err)
		}
		res.Clients[batchVanilla].Mode = res.Clients[0].Mode
		if _, _, msg := env.check(res); msg != "both engines did not run every query" {
			t.Errorf("run without the vanilla engine: check says %q", msg)
		}
	})
}

// TestRecorderWindows checks the window arithmetic on a known sequence.
func TestRecorderWindows(t *testing.T) {
	start := time.Unix(0, 0)
	r := newRecorder(11, 2)
	for w := 0; w < 8; w++ {
		// Window w holds 11 operations 50 ms apart taking w+1 ms each.
		for i := 0; i < 11; i++ {
			at := start.Add(time.Duration(w)*time.Second + time.Duration(i)*50*time.Millisecond)
			r.add(at, float64(w+1))
		}
	}
	r.add(start.Add(time.Hour), 100) // a partial window does not count
	w := r.finish()
	// Every window completes 10 operations of 2 queries in the half
	// second after its first completion.
	if math.Abs(w.qps-40) > 1e-9 {
		t.Errorf("qps = %v, want 40", w.qps)
	}
	// Window latencies run 1..8 ms; the median of eight is 4.5.
	if w.p50 != 4.5 || w.p95 != 4.5 || w.p99 != 4.5 {
		t.Errorf("p50, p95, p99 = %v, %v, %v, want 4.5", w.p50, w.p95, w.p99)
	}
}
