package skipper

import (
	"errors"
	"fmt"

	"repro/internal/tuple"
)

// Check verifies the invariants every completed run satisfies, whatever
// the engine, cache, pipeline, fault plan or fleet shape:
//
//   - per client, GET conservation: the GETs its tenant's devices
//     received plus the ones a crashed device refused equal
//     GetsIssued - CacheHits - PrefetchServed + PrefetchIssued (a cache
//     hit or a staged prefetch absorbs a demand GET; every prefetch and
//     every retry is a device GET);
//   - per device d and client, the same balance against the client's
//     routing ledgers: received + refused on d equals
//     DeviceGets[d] + PrefetchDeviceGets[d];
//   - in skipper mode, MJoin's requests plus the proxy's retries equal
//     GetsIssued (the Figure 11 request count loses nothing);
//   - PrefetchUseful never exceeds PrefetchIssued;
//   - no bytes are left pinned in the shared segment cache.
//
// Tenant ids are unique within a cluster, so a device's per-tenant
// counts belong to exactly one client. Every violation is reported.
func (r *RunResult) Check() error {
	var errs []error
	bad := func(format string, args ...any) { errs = append(errs, fmt.Errorf(format, args...)) }
	for _, cs := range r.Clients {
		t := cs.Tenant
		got := r.CSD.GetsByTenant[t] + r.CSD.RefusedByTenant[t]
		want := cs.GetsIssued - cs.CacheHits - cs.PrefetchServed + cs.PrefetchIssued
		if got != want {
			bad("tenant %d: devices received %d + refused %d GETs, client accounts for %d (issued %d - cache hits %d - prefetch served %d + prefetch issued %d)",
				t, r.CSD.GetsByTenant[t], r.CSD.RefusedByTenant[t], want,
				cs.GetsIssued, cs.CacheHits, cs.PrefetchServed, cs.PrefetchIssued)
		}
		for d, st := range r.Devices {
			got := st.GetsByTenant[t] + st.RefusedByTenant[t]
			if want := cs.DeviceGets[d] + cs.PrefetchDeviceGets[d]; got != want {
				bad("device %d tenant %d: received %d + refused %d GETs, client routed %d (demand %d + prefetch %d)",
					d, t, st.GetsByTenant[t], st.RefusedByTenant[t], want, cs.DeviceGets[d], cs.PrefetchDeviceGets[d])
			}
		}
		if cs.Mode == ModeSkipper && cs.MJoin.Requests+cs.Retries != cs.GetsIssued {
			bad("tenant %d: mjoin requests %d + retries %d != GETs issued %d",
				t, cs.MJoin.Requests, cs.Retries, cs.GetsIssued)
		}
		if cs.PrefetchUseful > cs.PrefetchIssued {
			bad("tenant %d: prefetch useful %d > issued %d", t, cs.PrefetchUseful, cs.PrefetchIssued)
		}
	}
	if r.Cache != nil && r.Cache.PinnedBytes != 0 {
		bad("shared cache: %d bytes still pinned after the run", r.Cache.PinnedBytes)
	}
	return errors.Join(errs...)
}

// SameResults requires two runs to have returned byte-identical rows, in
// the same order, for every query of every client. The runs' clients
// must have kept their results (Client.KeepResults).
func SameResults(a, b *RunResult) error {
	if len(a.Clients) != len(b.Clients) {
		return fmt.Errorf("%d clients vs %d", len(a.Clients), len(b.Clients))
	}
	for i := range a.Clients {
		qa, qb := a.Clients[i].PerQuery, b.Clients[i].PerQuery
		if len(qa) != len(qb) {
			return fmt.Errorf("client %d: %d queries vs %d", i, len(qa), len(qb))
		}
		for j := range qa {
			if err := SameRows(qa[j].Results, qb[j].Results); err != nil {
				return fmt.Errorf("client %d query %s: %w", i, qa[j].QueryID, err)
			}
		}
	}
	return nil
}

// SameRows requires two result sets to be identical row for row, by
// their rendered values.
func SameRows(a, b []tuple.Row) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d rows vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].String() != b[i].String() {
			return fmt.Errorf("row %d: %s vs %s", i, a[i], b[i])
		}
	}
	return nil
}
