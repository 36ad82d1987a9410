package csd

import (
	"errors"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/layout"
	"repro/internal/segment"
	"repro/internal/tuple"
	"repro/internal/vtime"
)

// newFaultRig is newRig with a fault plan attached.
func newFaultRig(t *testing.T, plan faults.Plan, objects map[segment.ObjectID]int) *testRig {
	t.Helper()
	cfg := DefaultConfig()
	inj, err := faults.New(plan)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Faults = inj
	return newRig(cfg, objects)
}

// A transient plan at rate 1.0 with cap 2 fails exactly the first two
// transfers of an object; the third lands. Failed transfers charge no
// bytes.
func TestTransientFailuresThenSuccess(t *testing.T) {
	id := oid(0, "a", 0)
	rig := newFaultRig(t, faults.Plan{Seed: 1, TransientRate: 1.0, MaxFaultsPerObject: 2},
		map[segment.ObjectID]int{id: 0})
	var errs []error
	var served *segment.Segment
	rig.sim.Spawn("client", func(p *vtime.Proc) {
		reply := vtime.NewChan[Delivery](rig.sim, "reply", 16)
		for {
			rig.csd.Submit(p, &Request{Object: id, QueryID: "q1", Tenant: 0, Reply: reply})
			d := reply.Recv(p)
			if d.Err == nil {
				served = d.Seg
				break
			}
			errs = append(errs, d.Err)
			if len(errs) > 5 {
				break
			}
		}
		rig.csd.Shutdown(p)
	})
	if err := rig.sim.Run(); err != nil {
		t.Fatal(err)
	}
	if len(errs) != 2 {
		t.Fatalf("got %d transient errors, want 2: %v", len(errs), errs)
	}
	for i, err := range errs {
		var te *TransientError
		if !errors.As(err, &te) {
			t.Fatalf("error %d is %T, want *TransientError", i, err)
		}
		if te.Object != id || te.Attempt != i+1 {
			t.Fatalf("error %d: %+v", i, te)
		}
		if !IsRetryable(err) {
			t.Fatalf("transient error not retryable")
		}
	}
	if served == nil {
		t.Fatalf("object never served")
	}
	st := rig.csd.Stats()
	if st.TransientFaults != 2 {
		t.Fatalf("TransientFaults = %d, want 2", st.TransientFaults)
	}
	// Only the successful transfer charges bytes; the failed attempts
	// spent time, not bandwidth accounting.
	if st.BytesServed != 1e9 {
		t.Fatalf("BytesServed = %d, want 1e9", st.BytesServed)
	}
	if st.GetsReceived != 3 {
		t.Fatalf("GetsReceived = %d, want 3", st.GetsReceived)
	}
}

// A transient failure of a coalesced transfer fans out to the carrier
// and every follower — nobody hangs, everybody can retry.
func TestTransientErrorFansOutToFollowers(t *testing.T) {
	id := oid(0, "a", 0)
	rig := newFaultRig(t, faults.Plan{Seed: 1, TransientRate: 1.0, MaxFaultsPerObject: 1},
		map[segment.ObjectID]int{id: 0})
	errCount := 0
	rig.sim.Spawn("clients", func(p *vtime.Proc) {
		reply := vtime.NewChan[Delivery](rig.sim, "reply", 16)
		// Two requests for the same object in the same dispatch round: the
		// second coalesces onto the first.
		rig.csd.Submit(p, &Request{Object: id, QueryID: "q1", Tenant: 0, Reply: reply})
		rig.csd.Submit(p, &Request{Object: id, QueryID: "q2", Tenant: 0, Reply: reply})
		for i := 0; i < 2; i++ {
			if d := reply.Recv(p); d.Err != nil {
				errCount++
			}
		}
		rig.csd.Shutdown(p)
	})
	if err := rig.sim.Run(); err != nil {
		t.Fatal(err)
	}
	if errCount != 2 {
		t.Fatalf("%d of 2 coalesced requesters got the error", errCount)
	}
	if st := rig.csd.Stats(); st.GetsCoalesced != 1 || st.TransientFaults != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

// A stall delays the delivery without failing it.
func TestStallDelaysDelivery(t *testing.T) {
	id := oid(0, "a", 0)
	rig := newFaultRig(t, faults.Plan{Seed: 3, StallRate: 1.0, Stall: 7 * time.Second},
		map[segment.ObjectID]int{id: 0})
	var at time.Duration
	rig.sim.Spawn("client", func(p *vtime.Proc) {
		reply := vtime.NewChan[Delivery](rig.sim, "reply", 4)
		rig.csd.Submit(p, &Request{Object: id, QueryID: "q1", Tenant: 0, Reply: reply})
		if d := reply.Recv(p); d.Err != nil {
			t.Errorf("stalled delivery failed: %v", d.Err)
		}
		at = p.Now()
		rig.csd.Shutdown(p)
	})
	if err := rig.sim.Run(); err != nil {
		t.Fatal(err)
	}
	if want := 17 * time.Second; at != want { // 10 s transfer + 7 s stall
		t.Fatalf("delivery at %v, want %v", at, want)
	}
	if st := rig.csd.Stats(); st.StalledTransfers != 1 {
		t.Fatalf("StalledTransfers = %d", st.StalledTransfers)
	}
}

// A corrupt fault against a checksummed lazy segment serves a payload
// that fails verification; the original in the store stays intact.
func TestCorruptDeliveryDetectable(t *testing.T) {
	sch := tuple.NewSchema(tuple.Column{Name: "k", Kind: tuple.KindInt64})
	id := oid(0, "a", 0)
	src := &segment.Segment{ID: id, Rows: []tuple.Row{{tuple.Int(7)}}, NominalBytes: 1e9}
	data, err := src.EncodeFormat(sch, segment.FormatV2)
	if err != nil {
		t.Fatal(err)
	}
	lazy, err := segment.DecodeLazy(sch, data)
	if err != nil {
		t.Fatal(err)
	}

	sim := vtime.NewSim()
	assign := layout.MustAssignment(1)
	assign.Place(id, 0)
	cfg := DefaultConfig()
	cfg.Faults = faults.MustNew(faults.Plan{Seed: 2, CorruptRate: 1.0, MaxFaultsPerObject: 1})
	c := New(sim, cfg, map[segment.ObjectID]*segment.Segment{id: lazy}, assign)
	c.Start()

	var first, second *segment.Segment
	sim.Spawn("client", func(p *vtime.Proc) {
		reply := vtime.NewChan[Delivery](sim, "reply", 4)
		c.Submit(p, &Request{Object: id, QueryID: "q1", Tenant: 0, Reply: reply})
		first = reply.Recv(p).Seg
		c.Submit(p, &Request{Object: id, QueryID: "q1", Tenant: 0, Reply: reply})
		second = reply.Recv(p).Seg
		c.Shutdown(p)
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if first == nil || second == nil {
		t.Fatal("deliveries missing")
	}
	if err := first.VerifyChecksum(); !errors.Is(err, segment.ErrCorrupt) {
		t.Fatalf("first delivery verified: %v", err)
	}
	if err := second.VerifyChecksum(); err != nil {
		t.Fatalf("retry delivered corrupt data: %v", err)
	}
	st := c.Stats()
	if st.CorruptDeliveries != 1 {
		t.Fatalf("CorruptDeliveries = %d", st.CorruptDeliveries)
	}
	// Corrupt bytes traveled: both transfers are charged.
	if st.BytesServed != 2e9 {
		t.Fatalf("BytesServed = %d, want 2e9", st.BytesServed)
	}
}

// A corrupt fault against an in-memory segment degrades to a transient
// failure — there are no wire bytes to flip.
func TestCorruptDegradesToTransientOnMemStore(t *testing.T) {
	id := oid(0, "a", 0)
	rig := newFaultRig(t, faults.Plan{Seed: 2, CorruptRate: 1.0, MaxFaultsPerObject: 1},
		map[segment.ObjectID]int{id: 0})
	var firstErr error
	rig.sim.Spawn("client", func(p *vtime.Proc) {
		reply := vtime.NewChan[Delivery](rig.sim, "reply", 4)
		rig.csd.Submit(p, &Request{Object: id, QueryID: "q1", Tenant: 0, Reply: reply})
		firstErr = reply.Recv(p).Err
		rig.csd.Submit(p, &Request{Object: id, QueryID: "q1", Tenant: 0, Reply: reply})
		if d := reply.Recv(p); d.Err != nil || d.Seg == nil {
			t.Errorf("retry failed: %v", d.Err)
		}
		rig.csd.Shutdown(p)
	})
	if err := rig.sim.Run(); err != nil {
		t.Fatal(err)
	}
	var te *TransientError
	if !errors.As(firstErr, &te) {
		t.Fatalf("degraded fault is %T (%v), want *TransientError", firstErr, firstErr)
	}
	if st := rig.csd.Stats(); st.TransientFaults != 1 || st.CorruptDeliveries != 0 {
		t.Fatalf("stats: %+v", st)
	}
}

// Crash mid-transfer: the in-flight request fails at its completion
// instant, requests during the window are refused immediately, and the
// restarted device serves retries.
func TestCrashAndRestart(t *testing.T) {
	id := oid(0, "a", 0)
	rig := newFaultRig(t, faults.Plan{Seed: 1, CrashAt: 5 * time.Second, CrashDowntime: 20 * time.Second},
		map[segment.ObjectID]int{id: 0})
	var inflightErr, duringErr error
	var servedAt time.Duration
	rig.sim.Spawn("client", func(p *vtime.Proc) {
		reply := vtime.NewChan[Delivery](rig.sim, "reply", 4)
		// Submitted at t=0, transfer completes at t=10 s — after the crash
		// at t=5 s, so the delivery is a down error.
		rig.csd.Submit(p, &Request{Object: id, QueryID: "q1", Tenant: 0, Reply: reply})
		inflightErr = reply.Recv(p).Err
		// Still down (restart at t=25 s): refused immediately.
		rig.csd.Submit(p, &Request{Object: id, QueryID: "q1", Tenant: 0, Reply: reply})
		duringErr = reply.Recv(p).Err
		if p.Now() != 10*time.Second {
			t.Errorf("down refusal waited: answered at %v", p.Now())
		}
		// Back off past the restart and retry.
		p.Sleep(20 * time.Second)
		rig.csd.Submit(p, &Request{Object: id, QueryID: "q1", Tenant: 0, Reply: reply})
		d := reply.Recv(p)
		if d.Err != nil {
			t.Errorf("post-restart request failed: %v", d.Err)
		}
		servedAt = p.Now()
		rig.csd.Shutdown(p)
	})
	if err := rig.sim.Run(); err != nil {
		t.Fatal(err)
	}
	for _, err := range []error{inflightErr, duringErr} {
		var de *DeviceDownError
		if !errors.As(err, &de) {
			t.Fatalf("error %T (%v), want *DeviceDownError", err, err)
		}
		if !de.Restarting {
			t.Fatalf("plan restarts but error says %+v", de)
		}
		if !IsRetryable(err) {
			t.Fatalf("restarting down error not retryable")
		}
	}
	if want := 40 * time.Second; servedAt != want { // retry at 30 s + 10 s transfer
		t.Fatalf("served at %v, want %v", servedAt, want)
	}
	st := rig.csd.Stats()
	if st.Crashes != 1 || st.Restarts != 1 || st.DownErrors != 2 {
		t.Fatalf("stats: %+v", st)
	}
	// The in-flight request was received before the crash; only the one
	// submitted inside the window was refused. Received + refused is what
	// the client submitted.
	if st.GetsByTenant[0] != 2 || st.RefusedByTenant[0] != 1 {
		t.Fatalf("received %v, refused %v; want 2 and 1", st.GetsByTenant, st.RefusedByTenant)
	}
	if sum := st.Plus(st); sum.RefusedByTenant[0] != 2 {
		t.Fatalf("Plus folded refusals to %v, want 2", sum.RefusedByTenant)
	}
}

// A permanent crash (no downtime) marks its errors non-restarting, so
// retry policies give up instead of spinning.
func TestPermanentCrashNotRetryable(t *testing.T) {
	id := oid(0, "a", 0)
	rig := newFaultRig(t, faults.Plan{Seed: 1, CrashAt: 5 * time.Second},
		map[segment.ObjectID]int{id: 0})
	var gotErr error
	rig.sim.Spawn("client", func(p *vtime.Proc) {
		reply := vtime.NewChan[Delivery](rig.sim, "reply", 4)
		rig.csd.Submit(p, &Request{Object: id, QueryID: "q1", Tenant: 0, Reply: reply})
		gotErr = reply.Recv(p).Err
		rig.csd.Shutdown(p)
	})
	if err := rig.sim.Run(); err != nil {
		t.Fatal(err)
	}
	var de *DeviceDownError
	if !errors.As(gotErr, &de) {
		t.Fatalf("error %T, want *DeviceDownError", gotErr)
	}
	if de.Restarting {
		t.Fatalf("permanent crash claims restart")
	}
	if IsRetryable(gotErr) {
		t.Fatalf("permanent crash retryable")
	}
}

// Regression for the fail-stop drain: when the scheduler misbehaves,
// every pending request — including several for the same object that
// would have coalesced — gets its own error delivery (no partial
// fan-out hang), in-flight transfers still complete with data, and a
// second Shutdown after the failure is harmless.
func TestFailStopDrainsAllPendingAndShutdownIdempotent(t *testing.T) {
	servable := oid(0, "a", 0) // group 0, dispatched immediately
	stuck := oid(1, "b", 0)    // group 1, pending when the switch fails
	objs := map[segment.ObjectID]int{servable: 0, stuck: 1}
	cfg := DefaultConfig()
	cfg.Scheduler = badScheduler{mode: "loaded"}
	rig := newRig(cfg, objs)

	var dataOK bool
	var errs []error
	rig.sim.Spawn("client", func(p *vtime.Proc) {
		reply := vtime.NewChan[Delivery](rig.sim, "reply", 16)
		rig.csd.Submit(p, &Request{Object: servable, QueryID: "q1", Tenant: 0, Reply: reply})
		// Three requests for the same stuck object: all pending on group 1
		// when the contract violation fail-stops the device.
		for i := 0; i < 3; i++ {
			rig.csd.Submit(p, &Request{Object: stuck, QueryID: "q2", Tenant: 1, Reply: reply})
		}
		for i := 0; i < 4; i++ {
			d := reply.Recv(p)
			if d.Err != nil {
				errs = append(errs, d.Err)
			} else if d.Object == servable {
				dataOK = true
			}
		}
		rig.csd.Shutdown(p)
		rig.csd.Shutdown(p) // idempotent: a second shutdown must not wedge the sim
	})
	if err := rig.sim.Run(); err != nil {
		t.Fatal(err)
	}
	if !dataOK {
		t.Fatalf("in-flight transfer did not complete with data")
	}
	if len(errs) != 3 {
		t.Fatalf("%d of 3 pending requests got the failure", len(errs))
	}
	for _, err := range errs {
		var sce *SchedulerContractError
		if !errors.As(err, &sce) {
			t.Fatalf("error %T, want *SchedulerContractError", err)
		}
		if IsRetryable(err) {
			t.Fatalf("contract violation retryable")
		}
	}
	if rig.csd.Err() == nil {
		t.Fatalf("device not marked failed")
	}
}
