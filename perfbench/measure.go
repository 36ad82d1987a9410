package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// counters is a snapshot of the process-wide allocation and GC counts.
type counters struct {
	allocs  uint64 // heap objects allocated
	bytes   uint64 // heap bytes allocated
	gcs     uint64 // completed GC cycles
	pauseNS uint64 // total stop-the-world GC pause
}

// readCounters stops the world briefly to read exact counts: the
// runtime/metrics allocation counters lag until per-P caches flush,
// which loses whole small calls.
func readCounters() counters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return counters{allocs: ms.Mallocs, bytes: ms.TotalAlloc, gcs: uint64(ms.NumGC), pauseNS: ms.PauseTotalNs}
}

// heapPeak samples the live heap (what the last GC found reachable)
// while a phase runs. The reported peak is the 99th percentile of the
// samples. The live heap, unlike the heap in use, does not grow when
// outside load slows the collector, and the percentile, unlike the
// maximum, does not move with where a GC cycle happens to fall.
type heapPeak struct {
	stop chan struct{}
	done chan float64
}

// heapSampleEvery is short against a GC cycle of the serving workloads
// (a few milliseconds), so nearly every cycle's live heap is sampled.
const heapSampleEvery = time.Millisecond

// startHeapPeak samples for a phase of length d. Its buffer is sized
// for the phase up front, so the benchmark's own memory does not grow
// during the phase, and it collects garbage before the phase starts.
func startHeapPeak(d time.Duration) *heapPeak {
	samples := make([]float64, 0, int(d/heapSampleEvery)+1000)
	runtime.GC()
	h := &heapPeak{stop: make(chan struct{}), done: make(chan float64, 1)}
	go func() {
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		t := time.NewTicker(heapSampleEvery)
		defer t.Stop()
		for {
			metrics.Read(s)
			if len(samples) < cap(samples) {
				samples = append(samples, float64(s[0].Value.Uint64()))
			}
			select {
			case <-h.stop:
				h.done <- quantile(samples, 0.99)
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// Stop ends sampling and returns the peak in MiB.
func (h *heapPeak) Stop() float64 {
	close(h.stop)
	return <-h.done / (1 << 20)
}

// recorder collects operation latencies in windows of a fixed number of
// operations, and reports throughput and latency as medians over the
// windows, so a burst of load from outside the process moves a few
// windows, not the result.
//
// Only the current window's latencies are kept; a full window is
// reduced to its throughput and percentiles, so memory does not grow
// with run length. A window's throughput counts the operations
// completed after its first completion over the time from that
// completion to its last. Safe for concurrent use.
type recorder struct {
	per   int     // operations per window
	perOp float64 // queries per operation

	mu          sync.Mutex
	lat         []float64 // the current window's latencies, in ms
	first, last time.Time // the current window's first and last completion
	sumMS       float64
	n           int64
	tput, p50s  []float64
	p95s, p99s  []float64
}

// windowStats are a phase's medians over windows: throughput in queries
// per second and latency percentiles in milliseconds.
type windowStats struct {
	qps, p50, p95, p99 float64
}

// newRecorder returns a recorder closing a window every per operations.
func newRecorder(per int, perOp float64) *recorder {
	return &recorder{per: per, perOp: perOp, lat: make([]float64, 0, per)}
}

// add records an operation that completed at end after ms milliseconds.
func (r *recorder) add(end time.Time, ms float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.lat) == 0 {
		r.first = end
	}
	r.last = end
	r.lat = append(r.lat, ms)
	r.sumMS += ms
	r.n++
	if len(r.lat) == r.per {
		r.close()
	}
}

// close reduces the current window and opens the next. Caller holds mu.
func (r *recorder) close() {
	if span := r.last.Sub(r.first); len(r.lat) > 1 && span > 0 {
		r.tput = append(r.tput, r.perOp*float64(len(r.lat)-1)/span.Seconds())
	}
	if len(r.lat) > 0 {
		r.p50s = append(r.p50s, quantile(r.lat, 0.50))
		r.p95s = append(r.p95s, quantile(r.lat, 0.95))
		r.p99s = append(r.p99s, quantile(r.lat, 0.99))
	}
	r.lat = r.lat[:0]
}

// finish returns the medians over windows of throughput and latency
// percentiles. The partial last window
// counts only when no window filled, as in a phase too short to fill
// one; a phase with a single operation reports a throughput of 0.
func (r *recorder) finish() windowStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.p50s) == 0 {
		r.close()
	}
	return windowStats{qps: median(r.tput), p50: median(r.p50s), p95: median(r.p95s), p99: median(r.p99s)}
}

// meanMS is the mean latency over the phase.
func (r *recorder) meanMS() float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return ratio(r.sumMS, float64(r.n))
}

// quantile returns the nearest-rank q-quantile of xs (sorted in place).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

// median returns the middle value of xs (sorted in place).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// ratio returns num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// setUps is how many times a run builds its environment; set-up time is
// the median, so one slow build does not move it.
const setUps = 5

// setUp builds the environment setUps times, closes all but the last,
// and returns the last with the median set-up time in seconds.
func setUp[E any](build func() (E, error), closeEnv func(E)) (E, float64, error) {
	var env E
	var times []float64
	for i := 0; i < setUps; i++ {
		if i > 0 {
			closeEnv(env)
		}
		runtime.GC() // no set-up pays for collecting an earlier one's garbage
		start := time.Now()
		e, err := build()
		if err != nil {
			var zero E
			return zero, 0, err
		}
		times = append(times, time.Since(start).Seconds())
		env = e
	}
	return env, median(times), nil
}

// usOf converts a duration to microseconds.
func usOf(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// msOf converts a duration to milliseconds.
func msOf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
