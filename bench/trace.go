package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one interval recorded at a layer boundary crossed from the
// harness. The spans of one job share Job; Synth marks a child
// reconstructed from the program's own accounting (Hierarchy.Timing
// deltas, Result.Metrics) instead of timed directly: its length is
// measured, its placement inside the parent is not.
type span struct {
	ID     int              `json:"id"`
	Parent int              `json:"parent"` // 0 = no parent
	Name   string           `json:"name"`
	Start  int64            `json:"start_ns"`
	End    int64            `json:"end_ns"`
	Job    string           `json:"job,omitempty"`
	Synth  bool             `json:"synth,omitempty"`
	Counts map[string]int64 `json:"counts,omitempty"`
}

// tracer keeps spans in memory until the workload ends. A nil *tracer is
// the untraced run: every method is a no-op, so workloads call it
// unconditionally.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span now and returns its ID (0 when tracing is off).
func (t *tracer) begin(parent int, name, job string) int {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Start: now, Job: job})
	return len(t.spans)
}

// end closes the span and attaches counts (may be nil).
func (t *tracer) end(id int, counts map[string]int64) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = now
	t.spans[id-1].Counts = counts
}

// record adds a span whose interval was timed by the caller, and returns
// its ID.
func (t *tracer) record(parent int, name, job string, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0)), Job: job})
	return len(t.spans)
}

// synth adds reconstructed children to parent, laid end to end from the
// parent's start in the order given; zero-length parts are skipped.
func (t *tracer) synth(parent int, parts []part) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	p := t.spans[parent-1]
	at := p.Start
	for _, pt := range parts {
		if pt.d <= 0 {
			continue
		}
		t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: pt.name,
			Start: at, End: at + int64(pt.d), Job: p.Job, Synth: true})
		at += int64(pt.d)
	}
}

// part is one reconstructed child of a span.
type part struct {
	name string
	d    time.Duration
}

// selfTimes returns, per span ID, the span's duration minus the part of
// it that its children cover (overlapping children are counted once, and
// a child is clipped to its parent).
func selfTimes(spans []span) map[int]int64 {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, upTo := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, upTo), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				upTo = hi
			}
		}
		self[s.ID] = s.End - s.Start - covered
	}
	return self
}

// selfTimeOf sums the self time of every span with the given name.
func (t *tracer) selfTimeOf(name string) time.Duration {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	self := selfTimes(t.spans)
	var sum int64
	for _, s := range t.spans {
		if s.Name == name {
			sum += self[s.ID]
		}
	}
	return time.Duration(sum)
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}
