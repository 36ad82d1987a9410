package mjoin

import "testing"

// BenchmarkMJoinProbe times one subplan execution of a 3-way chain over
// cached segments: a 10k-row root with two matches per root row in b and
// two per partial in c, so 20k partials after the first level and 40k
// result rows. Arrival decode and hash-table build are outside the timed
// loop.
func BenchmarkMJoinProbe(b *testing.B) {
	q, store := fanoutChain(b, 10_000, 2)
	m, sp := cachedSubplan(b, q, store, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.rows = m.rows[:0]
		m.executeSubplan(sp)
	}
	if len(m.rows) != 40_000 {
		b.Fatalf("%d rows, want 40000", len(m.rows))
	}
}
