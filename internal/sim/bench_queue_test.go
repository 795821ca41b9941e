package sim

// BenchmarkSchedulerQoS measures the fair-share queue's steady-state
// dispatch cost — one push plus one pop against a standing backlog — as
// the tenant population grows. pop scans tenant heads, so the tenant
// count is the axis that matters; the committed baseline lives in
// BENCH.json and cmd/perfgate gates regressions against it.

import (
	"fmt"
	"testing"
	"time"
)

func BenchmarkSchedulerQoS(b *testing.B) {
	for _, tenants := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("tenants=%d", tenants), func(b *testing.B) {
			base := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
			// A weighted tenant and a mix of deadline entries keep every
			// pop branch (weight lookup, urgency scan, burst accounting)
			// on the measured path.
			q := newFairQueue(1<<20, map[string]float64{"t0": 2}, func() time.Time { return base })
			seq := 0
			mk := func() *Job {
				seq++
				j := &Job{ID: fmt.Sprintf("j%d", seq), tenant: fmt.Sprintf("t%d", seq%tenants)}
				if seq%3 == 0 {
					j.deadline = base.Add(time.Duration(seq%97-40) * time.Second)
				}
				return j
			}
			// Steady state: a standing backlog so pop always has every
			// tenant in play, then one push + one pop per iteration keeps
			// the depth constant.
			for range 16 * tenants {
				if err := q.push(mk(), false); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				if err := q.push(mk(), true); err != nil {
					b.Fatal(err)
				}
				if _, ok := q.pop(); !ok {
					b.Fatal("queue drained under a standing backlog")
				}
			}
		})
	}
}
