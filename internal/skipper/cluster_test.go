package skipper

import (
	"strings"
	"testing"

	"repro/internal/csd"
	"repro/internal/mjoin"
	"repro/internal/segment"
)

func TestClusterRequiresClients(t *testing.T) {
	cl := &Cluster{Store: map[segment.ObjectID]*segment.Segment{}}
	if _, err := cl.Run(); err == nil {
		t.Fatal("empty cluster accepted")
	}
}

func TestClusterPropagatesPlanErrors(t *testing.T) {
	store := make(map[segment.ObjectID]*segment.Segment)
	cat := makeTenantDB(0, 5, 2, 2, store)
	badQuery := &mjoin.Query{
		ID:        "bad",
		Relations: []mjoin.Relation{{Table: cat.MustTable("a")}, {Table: cat.MustTable("b")}},
		Joins:     []mjoin.JoinCond{{Rel: 1, LeftCol: "nope", RightCol: "bk"}},
	}
	for _, mode := range []Mode{ModeVanilla, ModeSkipper} {
		c := &Client{Tenant: 0, Mode: mode, Catalog: cat, CacheObjects: 4,
			Queries: []QuerySpec{{Name: "bad", Join: badQuery}}}
		cl := &Cluster{Clients: []*Client{c}, Store: store}
		_, err := cl.Run()
		if err == nil {
			t.Fatalf("%v: bad join column accepted", mode)
		}
		if !strings.Contains(err.Error(), "nope") {
			t.Fatalf("%v: unhelpful error %v", mode, err)
		}
	}
}

func TestClusterUnknownModeFails(t *testing.T) {
	store := make(map[segment.ObjectID]*segment.Segment)
	cat := makeTenantDB(0, 5, 2, 2, store)
	c := &Client{Tenant: 0, Mode: Mode(99), Catalog: cat,
		Queries: []QuerySpec{{Name: "q", Join: joinQuery(cat)}}}
	if _, err := (&Cluster{Clients: []*Client{c}, Store: store}).Run(); err == nil {
		t.Fatal("unknown mode accepted")
	}
}

func TestClientWithNoQueriesFinishesImmediately(t *testing.T) {
	store := make(map[segment.ObjectID]*segment.Segment)
	cat := makeTenantDB(0, 5, 2, 2, store)
	c := &Client{Tenant: 0, Mode: ModeSkipper, Catalog: cat}
	res, err := (&Cluster{Clients: []*Client{c}, Store: store}).Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Clients[0].Elapsed() != 0 || res.Makespan != 0 {
		t.Fatalf("idle client took %v", res.Clients[0].Elapsed())
	}
}

// TestClusterDeterminism: identical inputs produce bit-identical timing
// and statistics (the vtime kernel's core guarantee, end to end).
func TestClusterDeterminism(t *testing.T) {
	run := func() *RunResult {
		res, err := buildCluster(3, ModeSkipper, 5).Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Makespan != b.Makespan {
		t.Fatalf("makespans differ: %v vs %v", a.Makespan, b.Makespan)
	}
	if a.CSD.GroupSwitches != b.CSD.GroupSwitches || a.CSD.GetsReceived != b.CSD.GetsReceived {
		t.Fatalf("CSD stats differ: %+v vs %+v", a.CSD, b.CSD)
	}
	for i := range a.Clients {
		if a.Clients[i].Elapsed() != b.Clients[i].Elapsed() {
			t.Fatalf("client %d elapsed differs", i)
		}
		if a.Clients[i].Processing != b.Clients[i].Processing {
			t.Fatalf("client %d processing differs", i)
		}
	}
}

// TestConservationLaws: what clients request equals what the device
// receives (RunResult.Check) and serves; bytes served match object
// sizes; a run without a crash window allocates no refusal ledger.
func TestConservationLaws(t *testing.T) {
	for _, mode := range []Mode{ModeVanilla, ModeSkipper} {
		res, err := buildCluster(3, mode, 4).Run()
		if err != nil {
			t.Fatal(err)
		}
		if err := res.Check(); err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if res.CSD.RefusedByTenant != nil {
			t.Fatalf("%v: clean run allocated a refusal ledger %v", mode, res.CSD.RefusedByTenant)
		}
		gets := 0
		for _, cs := range res.Clients {
			gets += cs.GetsIssued
		}
		if res.CSD.ObjectsServed != gets {
			t.Fatalf("%v: served %d != requested %d", mode, res.CSD.ObjectsServed, gets)
		}
		if res.CSD.BytesServed != int64(gets)*1e9 {
			t.Fatalf("%v: bytes %d", mode, res.CSD.BytesServed)
		}
	}
}

func TestModeString(t *testing.T) {
	if ModeVanilla.String() != "vanilla" || ModeSkipper.String() != "skipper" {
		t.Fatal("mode names")
	}
}

func TestEnergyIntegration(t *testing.T) {
	// Vanilla's pull pattern burns far more switch events, so under the
	// Pelican power model it consumes more switch-surge energy for the
	// same workload.
	pm := csd.PelicanPower()
	energies := map[Mode]float64{}
	for _, mode := range []Mode{ModeVanilla, ModeSkipper} {
		cl := buildCluster(3, mode, 6)
		res, err := cl.Run()
		if err != nil {
			t.Fatal(err)
		}
		energies[mode] = pm.Energy(res.CSD, res.Makespan)
	}
	if energies[ModeSkipper] >= energies[ModeVanilla] {
		t.Fatalf("skipper energy %.0f J >= vanilla %.0f J", energies[ModeSkipper], energies[ModeVanilla])
	}
}

func TestCustomEvictionPolicyOnCluster(t *testing.T) {
	store := make(map[segment.ObjectID]*segment.Segment)
	cat := makeTenantDB(0, 10, 4, 4, store)
	for _, pol := range []mjoin.EvictionPolicy{mjoin.MaxProgress{}, mjoin.MaxPending{}, mjoin.LRU{}} {
		st := make(map[segment.ObjectID]*segment.Segment)
		for k, v := range store {
			st[k] = v
		}
		c := &Client{Tenant: 0, Mode: ModeSkipper, Catalog: cat, CacheObjects: 2,
			Policy:  pol,
			Queries: []QuerySpec{{Name: "q", Join: joinQuery(cat)}}}
		res, err := (&Cluster{Clients: []*Client{c}, Store: st}).Run()
		if err != nil {
			t.Fatalf("%s: %v", pol.Name(), err)
		}
		if res.Clients[0].Rows != 40 {
			t.Fatalf("%s: rows %d", pol.Name(), res.Clients[0].Rows)
		}
	}
}

func TestThinkTimeZeroHasNoGap(t *testing.T) {
	store := make(map[segment.ObjectID]*segment.Segment)
	cat := makeTenantDB(0, 5, 2, 2, store)
	c := &Client{Tenant: 0, Mode: ModeSkipper, Catalog: cat, CacheObjects: 4,
		Queries: []QuerySpec{
			{Name: "q1", Join: joinQuery(cat)},
			{Name: "q2", Join: joinQuery(cat)},
		}}
	res, err := (&Cluster{Clients: []*Client{c}, Store: store}).Run()
	if err != nil {
		t.Fatal(err)
	}
	pq := res.Clients[0].PerQuery
	if pq[1].Start != pq[0].Finish {
		t.Fatalf("gap between queries: %v -> %v", pq[0].Finish, pq[1].Start)
	}
}
