package sim

import (
	"context"
	"fmt"
	"runtime"
	"testing"
)

// BenchmarkSimThroughput measures end-to-end job throughput of the
// service — build ICs, evolve, hash, cache — at 1/2/4 concurrent slots
// over the machine's full worker budget. Each job is a distinct sedov
// configuration (a unique e0 knob) so nothing short-circuits through the
// cache; ns/op is one job's share of the wall clock, baselined in
// BENCH.json.
func BenchmarkSimThroughput(b *testing.B) {
	for _, slots := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("slots=%d", slots), func(b *testing.B) {
			s := NewScheduler(Config{
				MaxConcurrent: slots,
				TotalWorkers:  runtime.NumCPU(),
				CacheSize:     b.N + 1,
				QueueDepth:    b.N + 1,
			})
			defer s.Close()
			b.ResetTimer()
			jobs := make([]*Job, b.N)
			for i := 0; i < b.N; i++ {
				j, err := s.Submit(Request{
					Problem: "sedov", RootN: 8, MaxLevel: Int(1), Steps: 2,
					Knobs: map[string]float64{"e0": 10 + float64(i)*1e-3},
				})
				if err != nil {
					b.Fatal(err)
				}
				jobs[i] = j
			}
			for _, j := range jobs {
				if _, err := j.Wait(context.Background()); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if st := s.Stats(); st.Executed != int64(b.N) {
				b.Fatalf("cache interfered: %d executions for %d jobs", st.Executed, b.N)
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "jobs/s")
		})
	}
}

// BenchmarkSimCacheHit isolates the cache path: the steady-state cost of
// answering a duplicate submission without evolving anything.
func BenchmarkSimCacheHit(b *testing.B) {
	s := NewScheduler(Config{MaxConcurrent: 1, TotalWorkers: runtime.NumCPU()})
	defer s.Close()
	req := Request{Problem: "sedov", RootN: 8, MaxLevel: Int(1), Steps: 2}
	j, err := s.Submit(req)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := j.Wait(context.Background()); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dup, err := s.Submit(req)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := dup.Result(); err != nil {
			b.Fatal(err)
		}
	}
}
