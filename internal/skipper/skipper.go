// Package skipper ties the pieces of the Skipper architecture together
// (Figure 6): database clients (one per VM/tenant), the client proxy that
// tags GET requests with query identifiers and mediates between the MJoin
// state manager and the CSD, and a Cluster harness that runs several
// tenants concurrently against one shared device and gathers per-client
// timing — the setup of every experiment in §5.
package skipper

import (
	"context"
	"fmt"
	"time"

	"repro/internal/catalog"
	"repro/internal/csd"
	"repro/internal/engine"
	"repro/internal/mjoin"
	"repro/internal/segcache"
	"repro/internal/segment"
	"repro/internal/trace"
	"repro/internal/tuple"
	"repro/internal/vtime"
)

// Mode selects the execution engine of a client.
type Mode uint8

const (
	// ModeVanilla is the classical pull-based engine: one synchronous
	// GET per segment, in plan order.
	ModeVanilla Mode = iota
	// ModeSkipper is the MJoin-based out-of-order engine: all GETs
	// upfront, execution driven by arrival order.
	ModeSkipper
)

func (m Mode) String() string {
	if m == ModeVanilla {
		return "vanilla"
	}
	return "skipper"
}

// ParseMode maps an engine name, as String renders it, to its Mode.
func ParseMode(s string) (Mode, error) {
	switch s {
	case "skipper":
		return ModeSkipper, nil
	case "vanilla":
		return ModeVanilla, nil
	default:
		return 0, fmt.Errorf("skipper: unknown engine %q (want skipper or vanilla)", s)
	}
}

// Costs bundles the virtual processing-cost calibration (Table 3).
type Costs struct {
	// VanillaPerObject is the pull engine's per-segment processing cost
	// (407 s / 57 objects ≈ 7.14 s).
	VanillaPerObject time.Duration
	// MJoinPerObject is the MJoin per-arrival cost (433 s / 57 ≈ 7.6 s;
	// ≈6% above vanilla).
	MJoinPerObject time.Duration
	// FusePerObject is the FUSE interposition overhead on the vanilla
	// path only (15.75 s / 57 ≈ 276 ms).
	FusePerObject time.Duration
}

// DefaultCosts returns the Table 3 calibration.
func DefaultCosts() Costs {
	return Costs{
		VanillaPerObject: 7140 * time.Millisecond,
		MJoinPerObject:   7600 * time.Millisecond,
		FusePerObject:    276 * time.Millisecond,
	}
}

// QuerySpec is one query a client runs: an MJoin query plus an optional
// post-join shaping stage (aggregation etc.) applied to the join output.
type QuerySpec struct {
	Name string
	// Join defines relations, local filters and join conditions; both
	// engines execute exactly this logical query.
	Join *mjoin.Query
	// Shape, if non-nil, wraps the join output (vanilla) or the MJoin
	// result rows (skipper) with the final operators.
	Shape func(input engine.Iterator) engine.Iterator
}

// ClientStats is the per-client timing record used by the experiments.
type ClientStats struct {
	Tenant int
	Mode   Mode
	// Start/Finish bound the whole workload (all queries).
	Start, Finish time.Duration
	// PerQuery holds one entry per executed query, in order.
	PerQuery []QueryRun
	// Processing accumulates virtual compute charges.
	Processing time.Duration
	// Fuse accumulates FUSE overhead charges (vanilla only).
	Fuse time.Duration
	// StallIntervals are the periods the client spent blocked waiting
	// for data from the CSD.
	StallIntervals []csd.Interval
	// GetsIssued counts GET requests (including MJoin reissues). Requests
	// served by the shared segment cache are included; subtract CacheHits
	// for the device-visible traffic.
	GetsIssued int
	// CacheHits counts GETs served from the shared segment cache without
	// touching the device (the device-visible count is below, with the
	// prefetch counters).
	CacheHits int
	// SegmentsSkipped counts segment requests the statistics subsystem
	// (zone maps + Bloom filters) avoided across the workload — fetches
	// that would have been issued without data skipping.
	SegmentsSkipped int
	// BytesFetched / BytesDecoded / BytesSkippedByProjection /
	// BytesMaterialized account the scan-side decode work against
	// encoded (lazily decoded) stores: total encoded size of the
	// segments scanned, the block bytes actually decoded, the block
	// bytes projection pushdown left untouched, and the logical size of
	// the values materialized into batches. All zero over in-memory
	// (never-encoded) stores.
	BytesFetched             int64
	BytesDecoded             int64
	BytesSkippedByProjection int64
	BytesMaterialized        int64
	// Rows is the total result row count across queries.
	Rows int64
	// MJoin aggregates state-manager statistics (skipper mode).
	MJoin mjoin.Stats
	// PrefetchIssued counts GETs the prefetcher sent to the device on
	// this client's behalf; PrefetchServed counts demand requests served
	// from staged prefetch deliveries instead of the device; and
	// PrefetchUseful counts distinct prefetched objects a query actually
	// consumed (staged or via a cache hit on a prefetched entry). The
	// device-visible GET count of a client (received plus refused) is
	// GetsIssued - CacheHits - PrefetchServed + PrefetchIssued.
	PrefetchIssued int
	PrefetchServed int
	PrefetchUseful int
	// DeviceGets and PrefetchDeviceGets are the per-device ledgers of a
	// device fleet: DeviceGets[d] counts the demand GETs (first requests
	// and retries) this client submitted to device d, and
	// PrefetchDeviceGets[d] the prefetcher's GETs on its behalf. GET
	// conservation holds per device, crash windows included: device d's
	// GetsByTenant[tenant] + RefusedByTenant[tenant] equals
	// DeviceGets[d] + PrefetchDeviceGets[d] (RunResult.Check). Nil when
	// no GET was routed.
	DeviceGets         map[int]int
	PrefetchDeviceGets map[int]int
	// Failovers counts recoveries that re-requested an object from a live
	// replica on another device instead of backing off against the device
	// that failed it. Each failover also counts in Retries.
	Failovers int
	// TransientFaults and CorruptDeliveries count the retryable faults
	// this client observed on the demand path; Retries counts the
	// re-requests the proxy issued in response (each also counts in
	// GetsIssued — GET conservation holds per attempt); RetryBackoff is
	// the virtual time spent waiting between attempts. All zero when the
	// device runs without a fault plan.
	TransientFaults   int
	CorruptDeliveries int
	Retries           int
	RetryBackoff      time.Duration
	// Pipe is the wall-clock pipeline accounting: real time the client's
	// consumers spent blocked on fetch and decode versus the decode time
	// the pipeline hid behind compute. Populated (as the inline baseline,
	// DecodeStall == DecodeBusy) even with the pipeline off.
	Pipe engine.PipeStats
	// WallElapsed is the real (hardware) time between this client's
	// workload start and finish. Under the cooperative simulation it
	// includes time other processes ran while this client was blocked;
	// per-cluster, RunResult.Wall is the headline number.
	WallElapsed time.Duration
}

// QueryRun records one query execution.
type QueryRun struct {
	Name          string
	QueryID       string
	Start, Finish time.Duration
	Rows          int
	// Results holds the full result rows when Client.KeepResults is set;
	// nil otherwise.
	Results []tuple.Row
}

// Elapsed returns the client's total workload time.
func (s *ClientStats) Elapsed() time.Duration { return s.Finish - s.Start }

// addDeviceGet records one demand GET submitted to device d.
func (s *ClientStats) addDeviceGet(d int) {
	if s.DeviceGets == nil {
		s.DeviceGets = make(map[int]int)
	}
	s.DeviceGets[d]++
}

// addPrefetchDeviceGet records one prefetch GET submitted to device d.
func (s *ClientStats) addPrefetchDeviceGet(d int) {
	if s.PrefetchDeviceGets == nil {
		s.PrefetchDeviceGets = make(map[int]int)
	}
	s.PrefetchDeviceGets[d]++
}

// Stalled sums the stall intervals.
func (s *ClientStats) Stalled() time.Duration {
	var d time.Duration
	for _, iv := range s.StallIntervals {
		d += iv.To - iv.From
	}
	return d
}

// Client is one database instance (one VM) bound to a tenant's catalog.
type Client struct {
	Tenant  int
	Mode    Mode
	Catalog *catalog.Catalog
	Queries []QuerySpec
	// CacheObjects is the MJoin buffer capacity in objects (skipper
	// mode). The paper expresses it in GB; with 1 GB objects the numbers
	// coincide.
	CacheObjects int
	// Policy overrides the eviction policy (default MaxProgress).
	Policy mjoin.EvictionPolicy
	// Pruning toggles subplan pruning (default true).
	Pruning *bool
	// StatsPruning toggles zone-map/Bloom data skipping (default true):
	// scan specs carrying a stats.Pruner skip proven result-free
	// segments before any GET is issued, in both modes. Query results
	// are identical either way; only storage traffic changes.
	StatsPruning *bool
	// Parallelism is the worker count for query execution: hash-join
	// build/probe and aggregation in ModeVanilla, the MJoin probe chains
	// and the shaping stage in ModeSkipper. 0 or 1 runs serially; query
	// results are identical at every setting, except that operators
	// without a Sort above them may emit rows in a different order, and
	// SUM/AVG over floats with non-representable values may differ in
	// the last ulps (parallel float addition reassociates; see
	// docs/tuning.md). Storage traffic and virtual time are unaffected —
	// the knob spends real CPU cores to cut the real (wall-clock)
	// compute between I/O stalls.
	Parallelism int
	// SegCache, when non-nil, is this client's private segment cache: the
	// proxy serves cache-resident objects without a device GET and admits
	// device deliveries on the way back. It overrides the cluster's
	// SharedCache for this client. Query results are byte-identical with
	// and without a cache; only storage traffic and timing change.
	SegCache *segcache.Cache
	// Pipeline, when non-nil, enables the asynchronous execution pipeline
	// for this client: scheduler-aware prefetch (PrefetchBytes) and
	// concurrent decode workers (DecodeWorkers). Query results are
	// byte-identical with the pipeline on or off; prefetch changes
	// storage timing (virtual), decode workers change wall-clock time
	// (real) only.
	Pipeline *PipelineConfig
	// Retry overrides the proxy's fault-recovery policy; nil uses
	// DefaultRetryPolicy. The policy only engages when a delivery carries
	// a retryable fault or a checksum failure — against a clean device it
	// never runs, so the default is always safe.
	Retry *RetryPolicy
	// Ctx, when non-nil, bounds the client's execution in real time: once
	// the context is canceled or its deadline passes, the workload aborts
	// with an error wrapping ctx.Err() at the next query boundary or
	// segment arrival. The serving layer threads per-query deadlines
	// through here. Cancellation observes the usual cleanup: prefetchers
	// are stopped, decode pools closed, and the device drained, exactly
	// as on any other client error.
	Ctx context.Context
	// QTrace, when non-nil, receives hierarchical spans for this client's
	// queries: a root span per query with execute, prefetch-disclosure,
	// per-segment fetch/decode and stall spans nested under it, stamped
	// with both wall and virtual clocks where the code owns a vtime proc.
	// nil (the default) records nothing and costs one branch per hook.
	QTrace *trace.QueryTrace
	// KeepResults retains every query's full result rows in the PerQuery
	// records — the hook the differential harnesses use to compare runs
	// byte for byte. Off by default: result sets can be large.
	KeepResults bool
	// Think, if set, inserts a pause between successive queries.
	Think time.Duration

	stats ClientStats
}

// Stats returns the client's record after the run.
func (c *Client) Stats() *ClientStats { return &c.stats }

// ctxErr reports the client's cancellation state (nil without a Ctx).
func (c *Client) ctxErr() error {
	if c.Ctx == nil {
		return nil
	}
	return c.Ctx.Err()
}

// statsPruningOn resolves the StatsPruning default.
func (c *Client) statsPruningOn() bool { return c.StatsPruning == nil || *c.StatsPruning }

// proxy is the client proxy daemon (§4.3): it owns the reply channel,
// tags requests with the query id, counts GETs, and records stalls. GETs
// are routed through the fleet's DeviceChooser — one device in the
// classic testbed, per-placement (replica-aware) in a multi-device
// cluster. When a segment cache is configured it sits between the
// engines and the devices: requests are consulted against the cache
// first (hits are delivered immediately at zero device cost) and device
// deliveries are admitted into the cache on the way back, so later
// queries — of this tenant or, with a cluster-shared cache, of any
// tenant — reuse the transferred bytes.
type proxy struct {
	sim    *vtime.Sim
	fl     *DeviceChooser
	tenant int
	stats  *ClientStats
	cache  *segcache.Cache
	reply  *vtime.Chan[csd.Delivery]
	proc   *vtime.Proc
	query  string
	// ctx, when non-nil, is the client's real-time cancellation signal:
	// NextArrival fail-stops the query once it fires, so a canceled or
	// deadline-expired query releases the engine at its next arrival
	// instead of running the workload to completion.
	ctx context.Context
	// pf, when non-nil, is the client's prefetch daemon: demand requests
	// consult its staged deliveries before touching the device, and cache
	// hits on prefetched entries are attributed to it.
	pf *prefetcher
	// tr, when non-nil, receives stall spans from NextArrival. The proxy
	// always runs on its owning proc, so spans carry both clocks.
	tr *trace.QueryTrace
	// retry is the fault-recovery bookkeeping: the active policy plus the
	// per-query attempt counts and budget (reset by beginQuery).
	retry *retryState
	// deferred holds retryable-fault deliveries TryNextArrival set aside:
	// recovery blocks (backoff sleeps on the virtual clock), which the
	// non-blocking path must not do, so NextArrival drains these first.
	deferred []csd.Delivery
}

func newProxy(sim *vtime.Sim, fl *DeviceChooser, tenant int, stats *ClientStats) *proxy {
	return &proxy{
		sim:    sim,
		fl:     fl,
		tenant: tenant,
		stats:  stats,
		reply:  vtime.NewChan[csd.Delivery](sim, fmt.Sprintf("proxy.t%d.reply", tenant), 1<<20),
		retry:  newRetryState(nil),
	}
}

// beginQuery names the query for request tagging and resets the
// per-query retry caps.
func (px *proxy) beginQuery(queryID string) {
	px.query = queryID
	px.retry.beginQuery()
}

// Request implements mjoin.Source: issue tagged GETs for a batch,
// serving cache-resident objects locally. Cache hits are enqueued on the
// reply channel ahead of any device delivery — arrival order is the
// out-of-order engine's input, so this only reorders, never loses, a
// delivery, and the vanilla path requests one object at a time. Misses
// fan out per device: each GET goes to the replica the chooser picks,
// batched per device in first-appearance order so per-device arrival
// order matches the request order.
func (px *proxy) Request(objs []segment.ObjectID) {
	perDev := make(map[int][]*csd.Request)
	var devOrder []int
	for _, id := range objs {
		if px.cache != nil {
			if seg, ok := px.cache.Get(id); ok {
				px.stats.CacheHits++
				if px.pf != nil && px.pf.markUsed(id) {
					px.stats.PrefetchUseful++
				}
				px.reply.Send(px.proc, csd.Delivery{Object: id, Seg: seg})
				continue
			}
		}
		if px.pf != nil {
			if seg, ok := px.pf.takeStaged(id); ok {
				px.stats.PrefetchServed++
				px.stats.PrefetchUseful++
				px.reply.Send(px.proc, csd.Delivery{Object: id, Seg: seg})
				continue
			}
		}
		d := px.fl.Choose(id)
		px.stats.addDeviceGet(d)
		if perDev[d] == nil {
			devOrder = append(devOrder, d)
		}
		perDev[d] = append(perDev[d], &csd.Request{Object: id, QueryID: px.query, Tenant: px.tenant, Reply: px.reply})
	}
	for _, d := range devOrder {
		px.fl.device(d).Submit(px.proc, perDev[d]...)
	}
	px.stats.GetsIssued += len(objs)
}

// NextArrival implements mjoin.Source: block until one object arrives,
// recording the stall and admitting device deliveries into the cache.
// This is also where fault recovery lives: a retryable error delivery or
// a checksum-failed payload triggers backoff and a re-request (see
// retry.go), and the loop keeps receiving — the replacement arrives on
// the same reply channel, possibly after other objects, so callers still
// see exactly one clean arrival per requested object. Deliveries the
// non-blocking path set aside are drained first.
func (px *proxy) NextArrival() (*segment.Segment, error) {
	for {
		if px.ctx != nil {
			if err := px.ctx.Err(); err != nil {
				return nil, fmt.Errorf("tenant %d: query canceled awaiting arrival: %w", px.tenant, err)
			}
		}
		var d csd.Delivery
		if len(px.deferred) > 0 {
			d = px.deferred[0]
			px.deferred = px.deferred[1:]
		} else {
			from := px.proc.Now()
			var wallFrom time.Time
			if px.tr.Enabled() {
				wallFrom = time.Now()
			}
			d = px.reply.Recv(px.proc)
			if to := px.proc.Now(); to > from {
				px.stats.StallIntervals = append(px.stats.StallIntervals, csd.Interval{From: from, To: to})
				if px.tr.Enabled() {
					px.tr.EmitVirt(trace.CatStall, px.query, wallFrom, from, to)
				}
			}
		}
		class, cause := classify(d)
		if class == deliveryFatal && px.canFailover(d) {
			// A permanent device crash is not fatal to the query when a
			// live replica holds the object: recover like a retryable
			// fault, with the retry path failing over to the replica.
			class = deliveryRetryable
		}
		switch class {
		case deliveryOK:
			if px.cache != nil {
				px.cache.Put(d.Object, d.Seg)
			}
			return d.Seg, nil
		case deliveryFatal:
			return nil, cause
		default:
			if err := px.retryDelivery(d, class, cause); err != nil {
				return nil, err
			}
			// Retry in flight; keep receiving.
		}
	}
}

// TryNextArrival implements mjoin.TryArrivalSource: a non-blocking
// NextArrival. An already-enqueued delivery is returned at zero virtual
// cost (and admitted to the cache like any other); otherwise the caller
// keeps working and blocks on NextArrival only when truly out of input —
// which is what keeps the pipelined engine's virtual timing identical to
// the serial path's. A retryable-fault delivery is set aside rather than
// recovered here: recovery backs off on the virtual clock, and this path
// must not block, so the delivery waits in px.deferred for the next
// blocking NextArrival (the engine always falls back to one when out of
// work, so a deferred fault cannot strand the query).
func (px *proxy) TryNextArrival() (*segment.Segment, bool, error) {
	d, ok := px.reply.TryRecv(px.proc)
	if !ok {
		return nil, false, nil
	}
	class, cause := classify(d)
	switch class {
	case deliveryOK:
		if px.cache != nil {
			px.cache.Put(d.Object, d.Seg)
		}
		return d.Seg, true, nil
	case deliveryFatal:
		if px.canFailover(d) {
			// Recoverable via a live replica; like any other recovery it
			// may block, so defer it to the next blocking NextArrival.
			px.deferred = append(px.deferred, d)
			return nil, false, nil
		}
		return nil, false, cause
	default:
		px.deferred = append(px.deferred, d)
		return nil, false, nil
	}
}

// fetchSync is the vanilla path: one GET, wait, charge FUSE overhead.
func (px *proxy) fetchSync(id segment.ObjectID, fuse time.Duration) (*segment.Segment, error) {
	px.Request([]segment.ObjectID{id})
	seg, err := px.NextArrival()
	if err != nil {
		return nil, err
	}
	if fuse > 0 {
		px.proc.Sleep(fuse)
		px.stats.Fuse += fuse
	}
	return seg, nil
}

// chargingClock charges processing time to both the simulation clock and
// the client's accounting.
type chargingClock struct {
	proc  *vtime.Proc
	stats *ClientStats
}

func (c *chargingClock) Sleep(d time.Duration) {
	c.proc.Sleep(d)
	c.stats.Processing += d
}

// vanillaFetcher adapts the proxy to engine.Fetcher.
type vanillaFetcher struct {
	px   *proxy
	fuse time.Duration
}

func (f *vanillaFetcher) Fetch(id segment.ObjectID) (*segment.Segment, error) {
	return f.px.fetchSync(id, f.fuse)
}

// TryFetch implements engine.TryFetcher for the pipelined scan: only
// segments already resident — in the segment cache or staged by the
// prefetcher — are served, with the same accounting and FUSE charge as
// the synchronous path; anything that would touch the device reports
// not-available so the scan falls back to a demand Fetch at exactly the
// point the serial plan would have issued it. Reordering the (virtually
// charged) FUSE sleeps ahead of processing charges leaves the client's
// total virtual time and its device GET instants unchanged.
func (f *vanillaFetcher) TryFetch(id segment.ObjectID) (*segment.Segment, bool, error) {
	px := f.px
	var seg *segment.Segment
	if px.cache != nil {
		if s, ok := px.cache.Get(id); ok {
			px.stats.CacheHits++
			if px.pf != nil && px.pf.markUsed(id) {
				px.stats.PrefetchUseful++
			}
			seg = s
		}
	}
	if seg == nil && px.pf != nil {
		if s, ok := px.pf.takeStaged(id); ok {
			px.stats.PrefetchServed++
			px.stats.PrefetchUseful++
			seg = s
		}
	}
	if seg == nil {
		return nil, false, nil
	}
	px.stats.GetsIssued++
	if f.fuse > 0 {
		px.proc.Sleep(f.fuse)
		px.stats.Fuse += f.fuse
	}
	return seg, true, nil
}
