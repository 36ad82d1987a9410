// Command perfbench is the repository benchmark. It drives one of three
// workloads through the program's public Go APIs, checks every result
// against an independent oracle, and prints its metrics as one JSON
// object on the last line of standard output:
//
//	perfbench --workload serve_hot|serve_cold|batch_mt --seed N --seconds S --trace 0|1
//
// With --trace 0 the object holds the end-to-end metrics of an untraced
// run; with --trace 1 it holds the per-layer metrics of a traced replay,
// and the run also prints self time per layer, the tracing overhead,
// and writes its spans under .bench_build/perfbench/. README.md records
// why each workload exists and which end-to-end metric each layer
// metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of the output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// set records a metric.
func (r *result) set(name string, value float64, unit string) {
	if r.Metrics == nil {
		r.Metrics = make(map[string]metric)
	}
	r.Metrics[name] = metric{Value: value, Unit: unit}
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(options) (*result, error){
	"serve_hot":  func(o options) (*result, error) { return runServe(o, serveHot) },
	"serve_cold": func(o options) (*result, error) { return runServe(o, serveCold) },
	"batch_mt":   runBatch,
}

func main() {
	var o options
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "workload to run: serve_hot, serve_cold or batch_mt")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed: drives the generated dataset and each session's statement sequence")
	flag.Float64Var(&o.seconds, "seconds", 10, "measured run length in seconds")
	flag.IntVar(&traceFlag, "trace", 0, "0 reports end-to-end metrics; 1 runs the traced replay and reports per-layer metrics")
	flag.Parse()
	run, ok := workloads[o.workload]
	switch {
	case !ok:
		fail("unknown --workload %q (want serve_hot, serve_cold or batch_mt)", o.workload)
	case o.seconds <= 0:
		fail("--seconds must be positive, got %v", o.seconds)
	case traceFlag != 0 && traceFlag != 1:
		fail("--trace must be 0 or 1, got %d", traceFlag)
	}
	o.trace = traceFlag == 1
	fmt.Printf("# perfbench workload=%s seed=%d seconds=%g trace=%d\n", o.workload, o.seed, o.seconds, traceFlag)
	fmt.Printf("# host %s\n", hostRecord())
	res, err := run(o)
	if err != nil {
		fail("%s: %v", o.workload, err)
	}
	out, err := encodeResult(res)
	if err != nil {
		fail("%s: %v", o.workload, err)
	}
	fmt.Println(out)
	if !res.Correct {
		os.Exit(1)
	}
}

// fail reports an error that prevents a result and exits non-zero.
func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(2)
}

// encodeResult renders the result line, refusing values JSON cannot hold.
func encodeResult(res *result) (string, error) {
	for name, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return "", fmt.Errorf("metric %s is %v", name, m.Value)
		}
	}
	b, err := json.Marshal(res)
	if err != nil {
		return "", fmt.Errorf("encode result: %w", err)
	}
	return string(b), nil
}

// printMetrics lists the metrics by name with their units, one per line.
func printMetrics(res *result) {
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := res.Metrics[name]
		fmt.Printf("# %-32s %16.6g %s\n", name, m.Value, m.Unit)
	}
}

// setLatency records the windowed throughput and latency metrics. The
// 99th percentile is printed but is not a metric: on a shared VM it
// follows the host's CPU steal (see README.md).
func setLatency(res *result, w windowStats) {
	res.set("qps", w.qps, "1/s")
	res.set("p50_ms", w.p50, "ms")
	res.set("p95_ms", w.p95, "ms")
	fmt.Printf("# p99 %.4g ms (median over windows; printed, not a metric)\n", w.p99)
}

// hostRecord describes the machine and build the numbers come from.
func hostRecord() string {
	gogc := os.Getenv("GOGC")
	if gogc == "" {
		gogc = "100"
	}
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		modified := false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				commit = s.Value
			case "vcs.modified":
				modified = s.Value == "true"
			}
		}
		if modified && commit != "unknown" {
			commit += "+modified"
		}
	}
	return fmt.Sprintf("nproc=%d GOMAXPROCS=%d go=%s GOGC=%s commit=%s",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), gogc, commit)
}

// duration converts the --seconds setting to a duration.
func (o options) duration() time.Duration {
	return time.Duration(o.seconds * float64(time.Second))
}
