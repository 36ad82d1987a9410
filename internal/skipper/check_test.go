package skipper

import (
	"strings"
	"testing"

	"repro/internal/csd"
	"repro/internal/mjoin"
	"repro/internal/segcache"
	"repro/internal/tuple"
)

// balancedRun is a hand-built two-device run that satisfies every
// equation of Check, with one refused GET on device 0.
func balancedRun() *RunResult {
	cs := &ClientStats{
		Tenant: 0, Mode: ModeSkipper,
		GetsIssued: 10, CacheHits: 2, PrefetchServed: 1, PrefetchIssued: 3, PrefetchUseful: 2,
		MJoin: mjoin.Stats{Requests: 9}, Retries: 1,
		DeviceGets:         map[int]int{0: 4, 1: 3},
		PrefetchDeviceGets: map[int]int{0: 2, 1: 1},
	}
	d0 := csd.Stats{GetsByTenant: map[int]int{0: 5}, RefusedByTenant: map[int]int{0: 1}}
	d1 := csd.Stats{GetsByTenant: map[int]int{0: 4}}
	return &RunResult{
		Clients: []*ClientStats{cs},
		CSD:     d0.Plus(d1),
		Devices: []csd.Stats{d0, d1},
		Cache:   &segcache.Stats{},
	}
}

// TestCheckRejectsEachViolation breaks one equation of Check at a time
// and requires Check to name it, and only it; the untouched run must
// pass.
func TestCheckRejectsEachViolation(t *testing.T) {
	if err := balancedRun().Check(); err != nil {
		t.Fatalf("balanced run rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(r *RunResult)
		want   string
	}{
		// A cache hit the device ledger does not know about unbalances the
		// client's total but no device's routing.
		{"client conservation", func(r *RunResult) { r.Clients[0].CacheHits++ }, "client accounts for"},
		// Moving a routed GET between devices keeps every total.
		{"device conservation", func(r *RunResult) {
			r.Clients[0].DeviceGets[0]++
			r.Clients[0].DeviceGets[1]--
		}, "client routed"},
		{"mjoin requests", func(r *RunResult) { r.Clients[0].MJoin.Requests-- }, "mjoin requests"},
		{"prefetch usefulness", func(r *RunResult) { r.Clients[0].PrefetchUseful = 4 }, "prefetch useful"},
		{"pinned bytes", func(r *RunResult) { r.Cache.PinnedBytes = 1 }, "pinned"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			r := balancedRun()
			c.mutate(r)
			err := r.Check()
			if err == nil {
				t.Fatal("Check accepted the broken run")
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error %q does not name the broken equation (%q)", err, c.want)
			}
			for _, other := range cases {
				if other.want != c.want && strings.Contains(err.Error(), other.want) {
					t.Fatalf("breaking %s also tripped %s: %v", c.name, other.name, err)
				}
			}
		})
	}
	// A refusal the device did not count breaks both conservation
	// equations: the client's ledger runs ahead of the devices.
	r := balancedRun()
	r.Devices[0].RefusedByTenant = nil
	r.CSD = r.Devices[0].Plus(r.Devices[1])
	err := r.Check()
	if err == nil || !strings.Contains(err.Error(), "client accounts for") || !strings.Contains(err.Error(), "client routed") {
		t.Fatalf("uncounted refusal: got %v, want both conservation equations violated", err)
	}
}

// TestSameResultsNamesTheDivergence: one differing value is reported
// with its client, query and row.
func TestSameResultsNamesTheDivergence(t *testing.T) {
	run := func(last int64) *RunResult {
		rows := []tuple.Row{{tuple.Int(1)}, {tuple.Int(last)}}
		return &RunResult{Clients: []*ClientStats{
			{PerQuery: []QueryRun{{QueryID: "t0.q#0", Results: rows}}},
			{PerQuery: []QueryRun{{QueryID: "t1.q#0", Results: rows}}},
		}}
	}
	if err := SameResults(run(2), run(2)); err != nil {
		t.Fatalf("identical runs differ: %v", err)
	}
	a, b := run(2), run(2)
	b.Clients[1].PerQuery[0].Results = []tuple.Row{{tuple.Int(1)}, {tuple.Int(3)}}
	err := SameResults(a, b)
	if err == nil || !strings.Contains(err.Error(), "client 1 query t1.q#0: row 1") {
		t.Fatalf("got %v, want the divergence at client 1 query t1.q#0 row 1", err)
	}
}
