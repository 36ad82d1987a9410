// Package csd emulates a Cold Storage Device: a MAID array in which only
// one disk group is spun up at a time. Accessing an object in the loaded
// group costs a bandwidth-bound transfer; accessing any other group first
// costs a group switch (spin-down + spin-up, ~10 s). The emulator mirrors
// the paper's Swift middleware: it maintains object→group metadata, adds
// group-switch delays, serializes each tenant's transfers on a per-tenant
// stream, and schedules switches with a pluggable policy (§4.4). Pending
// requests for the same object — across queries and tenants — are
// coalesced into a single transfer whose delivery fans out to every
// requester (Stats.GetsCoalesced), lifting the paper's observation that
// FCFS device policies "cannot merge requests across queries" into the
// device itself.
package csd

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/faults"
	"repro/internal/layout"
	"repro/internal/segment"
	"repro/internal/trace"
	"repro/internal/vtime"
)

// Delivery is one object handed back to a client.
type Delivery struct {
	Object segment.ObjectID
	Seg    *segment.Segment
	// Device is the id of the device that produced the delivery
	// (Config.ID). Clients in a multi-device fleet use it to attribute
	// faults to the right replica — a DeviceDownError from device 1 says
	// nothing about device 0's health.
	Device int
	// Err, when non-nil, reports that the device failed the request
	// instead of serving it (e.g. a scheduler contract violation). Seg is
	// nil in that case.
	Err error
}

// SchedulerContractError reports a Scheduler.NextGroup return value that
// violates the interface contract: a group with no pending requests
// (including -1 or an unknown group id) or the already-loaded group.
// Before this validation a misbehaving policy silently corrupted the run
// — the device would spin the switch loop or panic deep in dispatch; now
// the run fails fast with this error delivered to every waiting client.
type SchedulerContractError struct {
	// Scheduler is the policy's Name().
	Scheduler string
	// Returned is the offending group id.
	Returned int
	// Loaded is the group that was loaded when NextGroup was consulted.
	Loaded int
	// Reason describes the violated clause.
	Reason string
}

func (e *SchedulerContractError) Error() string {
	return fmt.Sprintf("csd: scheduler %s violated its contract: returned group %d (loaded %d): %s",
		e.Scheduler, e.Returned, e.Loaded, e.Reason)
}

// Request is a tagged GET: the client proxy attaches the query identifier
// so the scheduler can be workload-aware (§4.3).
type Request struct {
	Object  segment.ObjectID
	QueryID string
	Tenant  int
	Reply   *vtime.Chan[Delivery]

	seq       int           // arrival order, assigned by the CSD
	arrivedAt time.Duration // virtual arrival time
	// followers are later pending requests for the same object coalesced
	// onto this one: the transfer runs once and the delivery fans out to
	// every follower's reply channel at the same completion time.
	followers []*Request
}

// Interval is a half-open virtual-time interval [From, To).
type Interval struct {
	From, To time.Duration
}

// Stats aggregates what the device did during a run.
type Stats struct {
	GroupSwitches int
	ObjectsServed int
	// BytesServed sums the nominal (paper-scale, 1 GB) object sizes the
	// transfer model charges for.
	BytesServed int64
	// PayloadBytesServed sums the actual encoded sizes of the served
	// objects — the wire footprint of the segment format in use. Zero
	// when the store holds in-memory (never-encoded) segments.
	PayloadBytesServed int64
	GetsReceived       int
	// GetsCoalesced counts requests that were merged onto an earlier
	// request for the same object instead of paying their own transfer —
	// whether both were pending in the same dispatch round or the later
	// one arrived while the earlier one's transfer was already in
	// flight: N same-object requests cost one transfer (one BytesServed
	// charge) and N deliveries, N-1 of them coalesced.
	GetsCoalesced int
	GetsByTenant  map[int]int
	// RefusedByTenant counts, per tenant, the requests a crashed device
	// refused without receiving them (they are not in GetsReceived or
	// GetsByTenant). Nil until the first refusal, so a run without a
	// crash window allocates nothing for it.
	RefusedByTenant map[int]int
	ServedByQuery   map[string]int
	SwitchIntervals []Interval // when the device was mid-switch
	// GetsAvoided counts segment requests that were never issued because
	// the clients' statistics subsystem (zone maps + Bloom filters)
	// skipped them. The device cannot observe these itself; the cluster
	// harness fills the field in after a run so device traffic and
	// avoided traffic can be reported together.
	GetsAvoided int
	// TransientFaults / StalledTransfers / CorruptDeliveries count what
	// the fault injector actually surfaced: transfers failed with a
	// TransientError (no byte charge), transfers delayed by a stall, and
	// deliveries served with a bit-flipped payload (charged — the bytes
	// did travel). A corrupt fault against an in-memory segment degrades
	// to a transient failure (there are no wire bytes to flip) and counts
	// there.
	TransientFaults   int
	StalledTransfers  int
	CorruptDeliveries int
	// Crashes / Restarts count whole-device crash windows entered and
	// exited. DownErrors counts requests refused (or in-flight transfers
	// voided) because the device was down.
	Crashes    int
	Restarts   int
	DownErrors int
}

// Plus returns the element-wise sum of two Stats — counters added, maps
// merged, switch intervals concatenated in time order. The cluster
// harness uses it to fold a fleet's per-device statistics into the
// aggregate view single-device callers already consume.
func (s Stats) Plus(o Stats) Stats {
	out := s
	out.GroupSwitches += o.GroupSwitches
	out.ObjectsServed += o.ObjectsServed
	out.BytesServed += o.BytesServed
	out.PayloadBytesServed += o.PayloadBytesServed
	out.GetsReceived += o.GetsReceived
	out.GetsCoalesced += o.GetsCoalesced
	out.GetsAvoided += o.GetsAvoided
	out.TransientFaults += o.TransientFaults
	out.StalledTransfers += o.StalledTransfers
	out.CorruptDeliveries += o.CorruptDeliveries
	out.Crashes += o.Crashes
	out.Restarts += o.Restarts
	out.DownErrors += o.DownErrors
	out.GetsByTenant = mergeCounts(s.GetsByTenant, o.GetsByTenant)
	out.RefusedByTenant = mergeCounts(s.RefusedByTenant, o.RefusedByTenant)
	out.ServedByQuery = mergeCounts(s.ServedByQuery, o.ServedByQuery)
	if len(o.SwitchIntervals) > 0 {
		merged := make([]Interval, 0, len(s.SwitchIntervals)+len(o.SwitchIntervals))
		merged = append(merged, s.SwitchIntervals...)
		merged = append(merged, o.SwitchIntervals...)
		sort.Slice(merged, func(i, j int) bool { return merged[i].From < merged[j].From })
		out.SwitchIntervals = merged
	}
	return out
}

// mergeCounts sums two count maps into a fresh map (nil when both are).
func mergeCounts[K comparable](a, b map[K]int) map[K]int {
	if a == nil && b == nil {
		return nil
	}
	out := make(map[K]int, len(a)+len(b))
	for k, v := range a {
		out[k] += v
	}
	for k, v := range b {
		out[k] += v
	}
	return out
}

// Config parametrizes the device.
type Config struct {
	// ID names the device within a fleet. Single-device clusters leave it
	// 0; the cluster harness stamps ids [0, N) so deliveries, trace
	// events and process names say which device they came from.
	ID int
	// GroupSwitch is the spin-down/spin-up latency of a group switch
	// (Pelican: 8 s; the paper's experiments default to 10 s).
	GroupSwitch time.Duration
	// Bandwidth is the per-tenant-stream transfer rate in bytes/second.
	Bandwidth float64
	// Scheduler picks the next group (default: RankBased with K=1).
	Scheduler Scheduler
	// Order arranges requests within a loaded group for one tenant
	// (default: SemanticRoundRobin).
	Order OrderKind
	// StreamsPerTenant is the number of concurrent transfers per tenant
	// (default 1, the paper's serialized middleware). Raising it
	// implements §5.2.1's outlook — "by parallelizing the servicing of
	// requests within a group, we can reduce transfer time
	// substantially" — at the cost of strict per-tenant delivery order.
	StreamsPerTenant int
	// Events, when non-nil, receives structured trace events (GETs,
	// deliveries, switches).
	Events *trace.Log
	// Faults, when non-nil, injects the configured fault plan into every
	// transfer: transient failures, stalls, corrupt payloads and the
	// crash window. Nil means a perfect device. Note that a plan with a
	// crash schedule keeps the virtual clock running at least to the
	// crash (and restart) time — the timers are simulated processes.
	Faults *faults.Injector
}

// DefaultConfig returns the paper's defaults: 10 s switch, 100 MB/s
// effective per-stream bandwidth (≈10 s per 1 GB object, Table 3), the
// rank-based scheduler and semantic in-group ordering.
func DefaultConfig() Config {
	return Config{
		GroupSwitch: 10 * time.Second,
		Bandwidth:   100e6,
		Scheduler:   NewRankBased(1),
		Order:       SemanticRoundRobin,
	}
}

// OrderKind selects the in-group request ordering (§4.4 "What ordering
// within a group?").
type OrderKind uint8

const (
	// SemanticRoundRobin satisfies object requests evenly across the
	// relations of each query (A.1, B.1, C.1, A.2, ...), which lets a
	// cache-limited MJoin execute subplans as data streams in.
	SemanticRoundRobin OrderKind = iota
	// SequentialOrder returns objects in request-arrival order (all of
	// A, then all of B, ...), the pathological ordering for MJoin.
	SequentialOrder
)

// event multiplexes the controller's inputs over one channel (the vtime
// kernel has no select).
type event struct {
	req      *Request // a new GET
	doneID   int      // tenant whose stream finished a transfer (when req == nil and !shutdown)
	done     bool
	shutdown bool
	crash    bool // fault plan: the device crash-stops now
	restart  bool // fault plan: the downtime window ended
}

// CSD is the emulated device. Create with New, then Start it on a
// simulation, send GETs via Submit, and Shutdown when clients are done.
type CSD struct {
	sim    *vtime.Sim
	cfg    Config
	store  map[segment.ObjectID]*segment.Segment
	assign *layout.Assignment

	evCh    *vtime.Chan[event]
	streams map[int]*stream

	// controller state
	loaded      int // -1 before first load
	pending     []*Request
	inFlight    int
	arrivalSeq  int
	lastService map[string]int // queryID -> switch count at last service/arrival
	rrPos       map[string]int // queryID -> round-robin cursor over tables
	// inflight indexes the carrier request of every transfer currently
	// queued or running, so a later same-object request can ride along
	// instead of paying a second transfer. The stream worker deletes the
	// entry at transfer completion, before fanning out deliveries; the
	// worker's completion sequence never yields (all its channel sends
	// are buffered), so a follower is either attached while the entry
	// exists — and delivered — or misses it entirely and becomes a fresh
	// pending request. No follower can be attached to a carrier that has
	// already delivered.
	inflight map[segment.ObjectID]*Request
	// fatal, once set, fail-stops the device: every pending and future
	// request is answered with an error delivery instead of data.
	fatal error
	// down marks a crash window: pending and in-flight work fails with a
	// DeviceDownError and new requests are refused until restart (if the
	// plan has one — otherwise the window lasts the rest of the run).
	down bool

	stats Stats
}

// stream carries transfers to one tenant over one or more workers.
type stream struct {
	tenant  int
	queue   *vtime.Chan[*Request]
	workers int
}

// New builds a CSD over the given simulator, object store and layout.
func New(sim *vtime.Sim, cfg Config, store map[segment.ObjectID]*segment.Segment, assign *layout.Assignment) *CSD {
	if cfg.GroupSwitch < 0 {
		panic("csd: negative group switch latency")
	}
	if cfg.Bandwidth <= 0 {
		panic("csd: bandwidth must be positive")
	}
	if cfg.Scheduler == nil {
		cfg.Scheduler = NewRankBased(1)
	}
	return &CSD{
		sim:         sim,
		cfg:         cfg,
		store:       store,
		assign:      assign,
		evCh:        vtime.NewChan[event](sim, deviceName(cfg.ID)+".events", 1<<20),
		streams:     make(map[int]*stream),
		loaded:      -1,
		lastService: make(map[string]int),
		rrPos:       make(map[string]int),
		inflight:    make(map[segment.ObjectID]*Request),
	}
}

// deviceName renders a device's process-name prefix: "csd" for the
// primary (id 0, the historical single-device name) and "csd<id>"
// beyond it, so a fleet's simulated processes are tellable apart.
func deviceName(id int) string {
	if id == 0 {
		return "csd"
	}
	return fmt.Sprintf("csd%d", id)
}

// Stats returns a copy of the device statistics. Valid after Run.
func (c *CSD) Stats() Stats {
	st := c.stats
	return st
}

// ID returns the device's fleet id (Config.ID).
func (c *CSD) ID() int { return c.cfg.ID }

// Down reports whether the device is inside a crash window. Advisory in
// the same sense as LoadedGroup: exact at the instant of the call,
// stale after the caller's next yield. The fleet's device chooser uses
// it to route around a crashed replica.
func (c *CSD) Down() bool { return c.down }

// Err returns the fatal device error, if any — e.g. a
// *SchedulerContractError from a misbehaving policy. The same error is
// also delivered (as Delivery.Err) to every request the device could not
// serve, so clients normally observe it without polling here.
func (c *CSD) Err() error { return c.fatal }

// LoadedGroup returns the currently spun-up group, or -1 before the
// first load. Advisory: safe to call from any simulated process because
// the cooperative vtime kernel runs exactly one process at a time, but
// the value may change at the caller's next yield. Client-side
// prefetchers use it to aim lookahead GETs at data the device can serve
// without a switch.
func (c *CSD) LoadedGroup() int { return c.loaded }

// PredictNextGroup runs the scheduler's NextGroup policy over the
// current pending set without switching, returning the group the device
// would spin up next — or -1 when nothing is pending, the device is
// fail-stopped, or the policy violates its contract (the real switch
// will fail-stop; the prediction just declines to guess). Advisory in
// the same sense as LoadedGroup: the pending set the real switch sees
// may differ by the time it happens.
func (c *CSD) PredictNextGroup() (int, bool) {
	if c.fatal != nil || len(c.pending) == 0 {
		return -1, false
	}
	byGroup := make(map[int][]*Request)
	for _, r := range c.pending {
		byGroup[c.mustGroupOf(r.Object)] = append(byGroup[c.mustGroupOf(r.Object)], r)
	}
	waiting := func(queryID string) int {
		return c.stats.GroupSwitches - c.lastService[queryID]
	}
	next := c.cfg.Scheduler.NextGroup(c.loaded, byGroup, waiting)
	if next == c.loaded {
		return -1, false
	}
	if _, ok := byGroup[next]; !ok {
		return -1, false
	}
	return next, true
}

// Submit enqueues a GET request. Must be called from a simulated process.
func (c *CSD) Submit(p *vtime.Proc, reqs ...*Request) {
	for _, r := range reqs {
		if _, ok := c.store[r.Object]; !ok {
			panic(fmt.Sprintf("csd: GET for unknown object %v", r.Object))
		}
		c.evCh.Send(p, event{req: r})
	}
}

// Shutdown stops the controller after all in-flight work drains. Clients
// must not Submit afterwards.
func (c *CSD) Shutdown(p *vtime.Proc) {
	c.evCh.Send(p, event{shutdown: true})
}

// Start spawns the controller process — and, when the fault plan has a
// crash schedule, the crash and restart timers. Call once before
// Sim.Run.
func (c *CSD) Start() {
	c.sim.Spawn(deviceName(c.cfg.ID)+".controller", c.controller)
	if c.cfg.Faults == nil {
		return
	}
	plan := c.cfg.Faults.Plan()
	if plan.CrashAt <= 0 {
		return
	}
	c.sim.Spawn(deviceName(c.cfg.ID)+".crashtimer", func(p *vtime.Proc) {
		p.Sleep(plan.CrashAt)
		c.evCh.Send(p, event{crash: true})
	})
	if plan.CrashDowntime > 0 {
		c.sim.Spawn(deviceName(c.cfg.ID)+".restarttimer", func(p *vtime.Proc) {
			p.Sleep(plan.CrashAt + plan.CrashDowntime)
			c.evCh.Send(p, event{restart: true})
		})
	}
}

// willRestart reports whether the fault plan brings a crashed device
// back.
func (c *CSD) willRestart() bool {
	return c.cfg.Faults != nil && c.cfg.Faults.Plan().CrashDowntime > 0
}

// crash enters the crash window: every pending request fails with a
// DeviceDownError, and apply refuses new ones until restart. Transfers
// already in flight fail at their completion instant (the stream worker
// checks c.down) — the device forgot them when it went down.
func (c *CSD) crash(p *vtime.Proc) {
	if c.down || c.fatal != nil {
		return
	}
	c.down = true
	c.stats.Crashes++
	restarting := c.willRestart()
	c.sim.Tracef("csd: crash (restarting=%v, %d pending)", restarting, len(c.pending))
	c.cfg.Events.Add(trace.Event{
		At: p.Now(), Kind: trace.KindSwitch, Tenant: -1, Group: -1, Device: c.cfg.ID,
		Note: fmt.Sprintf("crash restarting=%v", restarting),
	})
	for _, r := range c.pending {
		c.stats.DownErrors++
		r.Reply.Send(p, Delivery{Object: r.Object, Device: c.cfg.ID, Err: &DeviceDownError{Object: r.Object, Restarting: restarting}})
	}
	c.pending = nil
}

func (c *CSD) controller(p *vtime.Proc) {
	c.stats.GetsByTenant = make(map[int]int)
	c.stats.ServedByQuery = make(map[string]int)
	shuttingDown := false
	for {
		// Drain everything already queued.
		for {
			ev, ok := c.evCh.TryRecv(p)
			if !ok {
				break
			}
			shuttingDown = c.apply(p, ev) || shuttingDown
		}
		if shuttingDown && len(c.pending) == 0 && c.inFlight == 0 {
			c.stopStreams(p)
			return
		}
		// Dispatch serviceable requests (loaded group) to tenant streams.
		if c.dispatch(p) {
			continue
		}
		if c.inFlight > 0 {
			// Wait for a completion (or new request) before deciding.
			shuttingDown = c.apply(p, c.evCh.Recv(p)) || shuttingDown
			continue
		}
		if len(c.pending) > 0 {
			// Everything pending is on other groups: switch.
			if err := c.switchGroup(p); err != nil {
				c.fail(p, err)
			}
			continue
		}
		if shuttingDown {
			c.stopStreams(p)
			return
		}
		// Idle: block for the next event.
		shuttingDown = c.apply(p, c.evCh.Recv(p)) || shuttingDown
	}
}

// apply folds one event into controller state, returning true on shutdown.
func (c *CSD) apply(p *vtime.Proc, ev event) bool {
	switch {
	case ev.shutdown:
		return true
	case ev.crash:
		c.crash(p)
	case ev.restart:
		if c.down {
			c.down = false
			c.stats.Restarts++
			c.sim.Tracef("csd: restarted")
			c.cfg.Events.Add(trace.Event{
				At: p.Now(), Kind: trace.KindSwitch, Tenant: -1, Group: c.loaded, Device: c.cfg.ID,
				Note: "restart",
			})
		}
	case ev.req != nil:
		r := ev.req
		if c.fatal != nil {
			// Fail-stopped device: answer immediately with the error.
			r.Reply.Send(p, Delivery{Object: r.Object, Device: c.cfg.ID, Err: c.fatal})
			return false
		}
		if c.down {
			// Crashed device: refuse rather than queue, so clients see the
			// window and back off instead of waiting on a dead box.
			c.stats.DownErrors++
			if c.stats.RefusedByTenant == nil {
				c.stats.RefusedByTenant = make(map[int]int)
			}
			c.stats.RefusedByTenant[r.Tenant]++
			r.Reply.Send(p, Delivery{Object: r.Object, Device: c.cfg.ID, Err: &DeviceDownError{Object: r.Object, Restarting: c.willRestart()}})
			return false
		}
		r.seq = c.arrivalSeq
		c.arrivalSeq++
		r.arrivedAt = p.Now()
		if _, seen := c.lastService[r.QueryID]; !seen {
			// A query starts waiting from its arrival (§4.4).
			c.lastService[r.QueryID] = c.stats.GroupSwitches
		}
		c.pending = append(c.pending, r)
		c.stats.GetsReceived++
		c.stats.GetsByTenant[r.Tenant]++
		c.cfg.Events.Add(trace.Event{
			At: p.Now(), Kind: trace.KindGet, Tenant: r.Tenant, Device: c.cfg.ID,
			Query: r.QueryID, Object: r.Object.String(), Group: c.mustGroupOf(r.Object),
		})
	case ev.done:
		c.inFlight--
	}
	return false
}

// dispatch hands every pending request on the loaded group to its tenant's
// stream, in the configured in-group order. Duplicate requests for the
// same object — across queries and tenants, whether pending in this round
// or already in flight from an earlier one — are coalesced onto the first
// requester in service order: the object is transferred once (one
// BytesServed charge) and the delivery fans out to every rider at the
// transfer's completion time. Reports whether any request was dispatched.
func (c *CSD) dispatch(p *vtime.Proc) bool {
	if c.loaded < 0 {
		// First load is free: the device is assumed to have the first
		// requested group spun up (the paper's single-client runs see
		// zero switches).
		if len(c.pending) == 0 {
			return false
		}
		c.loaded = c.mustGroupOf(c.pending[0].Object)
	}
	var onLoaded, rest []*Request
	for _, r := range c.pending {
		if c.mustGroupOf(r.Object) == c.loaded {
			onLoaded = append(onLoaded, r)
		} else {
			rest = append(rest, r)
		}
	}
	if len(onLoaded) == 0 {
		return false
	}
	c.pending = rest
	for _, r := range c.orderRequests(onLoaded) {
		c.lastService[r.QueryID] = c.stats.GroupSwitches
		c.stats.ServedByQuery[r.QueryID]++
		if carrier, dup := c.inflight[r.Object]; dup {
			carrier.followers = append(carrier.followers, r)
			c.stats.GetsCoalesced++
			continue
		}
		c.inflight[r.Object] = r
		c.tenantStream(r.Tenant).queue.Send(p, r)
		c.inFlight++
	}
	return true
}

func (c *CSD) mustGroupOf(id segment.ObjectID) int {
	g, err := c.assign.GroupOf(id)
	if err != nil {
		panic(err)
	}
	return g
}

// switchGroup asks the scheduler for the next group and pays the latency.
// A scheduler return that violates the NextGroup contract yields a
// *SchedulerContractError instead of a switch.
func (c *CSD) switchGroup(p *vtime.Proc) error {
	byGroup := make(map[int][]*Request)
	for _, r := range c.pending {
		g := c.mustGroupOf(r.Object)
		byGroup[g] = append(byGroup[g], r)
	}
	waiting := func(queryID string) int {
		return c.stats.GroupSwitches - c.lastService[queryID]
	}
	next := c.cfg.Scheduler.NextGroup(c.loaded, byGroup, waiting)
	if next == c.loaded {
		return &SchedulerContractError{
			Scheduler: c.cfg.Scheduler.Name(), Returned: next, Loaded: c.loaded,
			Reason: "picked the already-loaded group",
		}
	}
	if _, ok := byGroup[next]; !ok {
		return &SchedulerContractError{
			Scheduler: c.cfg.Scheduler.Name(), Returned: next, Loaded: c.loaded,
			Reason: "picked a group with no pending requests",
		}
	}
	from := p.Now()
	prev := c.loaded
	p.Sleep(c.cfg.GroupSwitch)
	c.loaded = next
	c.stats.GroupSwitches++
	c.stats.SwitchIntervals = append(c.stats.SwitchIntervals, Interval{From: from, To: p.Now()})
	c.sim.Tracef("csd: switched to group %d (%d pending)", next, len(c.pending))
	c.cfg.Events.Add(trace.Event{
		At: p.Now(), Kind: trace.KindSwitch, Tenant: -1, Group: next, Device: c.cfg.ID,
		Note: fmt.Sprintf("g%d->g%d", prev, next),
	})
	return nil
}

// fail fail-stops the device: the error is recorded and every pending
// request (and, via apply, every future one) receives an error delivery,
// so no client blocks forever on a device that cannot make progress.
// In-flight transfers complete normally.
func (c *CSD) fail(p *vtime.Proc, err error) {
	c.fatal = err
	c.sim.Tracef("csd: fail-stop: %v", err)
	for _, r := range c.pending {
		r.Reply.Send(p, Delivery{Object: r.Object, Device: c.cfg.ID, Err: err})
	}
	c.pending = nil
}

// tenantStream lazily spawns the per-tenant transfer worker(s).
func (c *CSD) tenantStream(tenant int) *stream {
	if s, ok := c.streams[tenant]; ok {
		return s
	}
	s := &stream{
		tenant: tenant,
		queue:  vtime.NewChan[*Request](c.sim, fmt.Sprintf("%s.stream.t%d", deviceName(c.cfg.ID), tenant), 1<<20),
	}
	c.streams[tenant] = s
	workers := c.cfg.StreamsPerTenant
	if workers < 1 {
		workers = 1
	}
	s.workers = workers
	for w := 0; w < workers; w++ {
		c.sim.Spawn(fmt.Sprintf("%s.stream.t%d.w%d", deviceName(c.cfg.ID), tenant, w), func(p *vtime.Proc) {
			for {
				r := s.queue.Recv(p)
				if r == nil {
					return
				}
				seg := c.store[r.Object]
				d := time.Duration(float64(seg.NominalBytes) / c.cfg.Bandwidth * float64(time.Second))
				var out faults.Outcome
				if c.cfg.Faults != nil {
					out = c.cfg.Faults.Transfer(r.Object.String())
				}
				if out.Stall > 0 {
					c.stats.StalledTransfers++
				}
				p.Sleep(d + out.Stall)
				// Close the ride-along window before fanning out: from here
				// on a new same-object request must pay its own transfer.
				// This sequence runs without yielding (see the inflight
				// field), so no follower can be attached after delivery.
				delete(c.inflight, r.Object)
				switch {
				case c.down:
					// The device crashed while this transfer was in flight:
					// the carrier and every coalesced follower get the same
					// error delivery — no partial fan-out, no byte charge.
					restarting := c.willRestart()
					for _, rr := range append([]*Request{r}, r.followers...) {
						c.stats.DownErrors++
						rr.Reply.Send(p, Delivery{Object: rr.Object, Device: c.cfg.ID, Err: &DeviceDownError{Object: rr.Object, Restarting: restarting}})
					}
				case out.Fail:
					// Transient failure: the transfer time was spent but no
					// data arrived, so nothing is charged. Every requester
					// sees the error and may retry.
					c.stats.TransientFaults++
					err := &TransientError{Object: r.Object, Attempt: c.cfg.Faults.Attempts(r.Object.String())}
					for _, rr := range append([]*Request{r}, r.followers...) {
						rr.Reply.Send(p, Delivery{Object: rr.Object, Device: c.cfg.ID, Err: err})
						c.cfg.Events.Add(trace.Event{
							At: p.Now(), Kind: trace.KindDelivery, Tenant: rr.Tenant, Device: c.cfg.ID,
							Query: rr.QueryID, Object: rr.Object.String(), Group: -1,
							Note: "transient-fault",
						})
					}
				default:
					served := seg
					note := ""
					if out.Corrupt {
						if bad := seg.CorruptedCopy(); bad != nil {
							served, note = bad, "corrupt"
							c.stats.CorruptDeliveries++
						} else {
							// In-memory segments carry no wire bytes to flip;
							// degrade the fault to a transient failure so the
							// plan still exercises the retry path.
							c.stats.TransientFaults++
							err := &TransientError{Object: r.Object, Attempt: c.cfg.Faults.Attempts(r.Object.String())}
							for _, rr := range append([]*Request{r}, r.followers...) {
								rr.Reply.Send(p, Delivery{Object: rr.Object, Device: c.cfg.ID, Err: err})
							}
							c.evCh.Send(p, event{done: true, doneID: s.tenant})
							continue
						}
					}
					// One transfer, one byte charge; the delivery fans out to
					// the carrier and every coalesced follower at the same
					// completion instant. Corrupt bytes traveled, so they are
					// charged like clean ones.
					c.stats.BytesServed += seg.NominalBytes
					c.stats.PayloadBytesServed += seg.EncodedSize()
					for _, rr := range append([]*Request{r}, r.followers...) {
						rr.Reply.Send(p, Delivery{Object: rr.Object, Seg: served, Device: c.cfg.ID})
						c.stats.ObjectsServed++
						c.cfg.Events.Add(trace.Event{
							At: p.Now(), Kind: trace.KindDelivery, Tenant: rr.Tenant, Device: c.cfg.ID,
							Query: rr.QueryID, Object: rr.Object.String(), Group: -1,
							Note: note,
						})
					}
				}
				c.evCh.Send(p, event{done: true, doneID: s.tenant})
			}
		})
	}
	return s
}

func (c *CSD) stopStreams(p *vtime.Proc) {
	for _, s := range c.streams {
		for w := 0; w < s.workers; w++ {
			s.queue.Send(p, nil)
		}
	}
}

// orderRequests arranges same-group requests before dispatch. Requests of
// different tenants land on independent streams, so ordering only matters
// within a tenant; SemanticRoundRobin interleaves each query's relations
// evenly (§4.4), SequentialOrder preserves arrival order.
func (c *CSD) orderRequests(reqs []*Request) []*Request {
	if c.cfg.Order == SequentialOrder {
		return reqs
	}
	// Bucket by query, then by table, preserving arrival order within
	// each bucket.
	type tableQueue struct {
		table string
		reqs  []*Request
	}
	type queryBucket struct {
		id     string
		tables []*tableQueue
		byName map[string]*tableQueue
		total  int
	}
	var queries []*queryBucket
	index := make(map[string]*queryBucket)
	for _, r := range reqs {
		qb, ok := index[r.QueryID]
		if !ok {
			qb = &queryBucket{id: r.QueryID, byName: make(map[string]*tableQueue)}
			index[r.QueryID] = qb
			queries = append(queries, qb)
		}
		tq, ok := qb.byName[r.Object.Table]
		if !ok {
			tq = &tableQueue{table: r.Object.Table}
			qb.byName[r.Object.Table] = tq
			qb.tables = append(qb.tables, tq)
		}
		tq.reqs = append(tq.reqs, r)
		qb.total++
	}
	out := make([]*Request, 0, len(reqs))
	for _, qb := range queries {
		// Round-robin across the query's tables: A.1, B.1, C.1, A.2, ...
		cursors := make([]int, len(qb.tables))
		for emitted := 0; emitted < qb.total; {
			for ti, tq := range qb.tables {
				if cursors[ti] < len(tq.reqs) {
					out = append(out, tq.reqs[cursors[ti]])
					cursors[ti]++
					emitted++
				}
			}
		}
	}
	return out
}
