package sim

// BenchmarkSpeculativeSweep measures the wall time of a staggered-
// arrival sweep — the enzobatch -server -stagger pattern: the client
// announces its row list, then submits one row at a time with a think-
// time gap after each completion. With speculation off the server
// computes every row on demand, so the sweep costs sum(rows) plus the
// gaps; with speculation on the idle slot runs ahead through the
// announced backlog during the gaps, so later rows are cache hits and
// the sweep costs roughly one row plus the gaps. The committed
// baseline lives in BENCH.json and cmd/perfgate gates both
// modes against it — "off" doubles as the regression guard proving the
// speculation machinery costs nothing when disabled.

import (
	"context"
	"fmt"
	"testing"
	"time"
)

func BenchmarkSpeculativeSweep(b *testing.B) {
	const (
		sweepRows = 4
		// The client's think time between rows: roughly twice one row's
		// runtime on the baseline host, so the idle window fits a whole
		// speculative execution even when the shared host runs slow —
		// wall-time jitter must not decide whether pre-warming keeps up.
		gap = 140 * time.Millisecond
	)
	mkRows := func() []Request {
		rs := make([]Request, sweepRows)
		for i := range rs {
			rs[i] = Request{Problem: "sedov", RootN: 32, MaxLevel: Int(1), Steps: 3, Workers: 1,
				Knobs: map[string]float64{"e0": float64(8 + i)}}
		}
		return rs
	}
	for _, speculate := range []bool{false, true} {
		b.Run(fmt.Sprintf("speculate=%t", speculate), func(b *testing.B) {
			slots := 0 // speculation off
			if speculate {
				slots = 1
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				s := NewScheduler(Config{MaxConcurrent: 1, TotalWorkers: 1, CacheSize: 4 * sweepRows,
					SpeculateSlots: slots})
				reqs := mkRows()
				b.StartTimer()

				if speculate {
					if _, err := s.PrewarmSweep("bench", reqs); err != nil {
						b.Fatal(err)
					}
				}
				for k, req := range reqs {
					if k > 0 {
						time.Sleep(gap)
					}
					j, err := s.Submit(req)
					if err != nil {
						b.Fatal(err)
					}
					if _, err := j.Wait(context.Background()); err != nil {
						b.Fatal(err)
					}
				}

				b.StopTimer()
				s.Close()
				b.StartTimer()
			}
		})
	}
}
