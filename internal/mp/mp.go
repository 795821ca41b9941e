// Package mp reproduces the parallelization strategy of the paper (§3.4)
// as an in-process message-passing runtime: ranks are goroutines, messages
// are typed channel sends with byte accounting, and the three key
// optimizations of the original MPI implementation are modeled so their
// effect can be measured:
//
//   - Distributed objects: whole grids are placed on processors (no
//     intra-grid decomposition), assigned by a load balancer.
//   - Sterile objects: every rank holds metadata-only replicas of every
//     grid, so neighbour lookup is a local operation and "almost all
//     messages are direct data sends; very few probes are required".
//   - Pipelined communication: each exchange phase posts all sends before
//     any receive, ordered so the data needed first is sent first; the
//     virtual-time model quantifies the resulting drop in wait time.
//
// The runtime substitutes for MPI on the paper's IBM SP2: it exercises the
// same code paths (ownership, probing, send ordering) and produces the
// same qualitative statistics, which is what the §3.4 discussion reports.
// It is a model only: nothing here crosses a process boundary (the serve
// cluster in internal/sim speaks HTTP), and amr's level loop does not run
// through it — docs/ARCHITECTURE.md records why that stays parked.
package mp

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Message is one typed payload between ranks.
type Message struct {
	From, To int
	Tag      string
	Bytes    int
	Data     any
}

// mailboxDepth is each rank's mailbox buffer: a send never blocks until
// one rank has this many messages undelivered, which no modeled exchange
// phase (tens of sends per rank) approaches.
const mailboxDepth = 1024

// Runtime carries the per-rank mailboxes and global statistics.
type Runtime struct {
	NRanks int
	queues []chan Message

	sends  atomic.Int64
	bytes  atomic.Int64
	probes atomic.Int64
}

// NewRuntime creates a runtime with n ranks and buffered mailboxes.
func NewRuntime(n int) (*Runtime, error) {
	if n < 1 {
		return nil, fmt.Errorf("mp: need at least 1 rank, got %d", n)
	}
	r := &Runtime{NRanks: n, queues: make([]chan Message, n)}
	for i := range r.queues {
		r.queues[i] = make(chan Message, mailboxDepth)
	}
	return r, nil
}

// Send delivers a message asynchronously (buffered).
func (r *Runtime) Send(m Message) error {
	if m.To < 0 || m.To >= r.NRanks {
		return fmt.Errorf("mp: bad destination rank %d", m.To)
	}
	r.queues[m.To] <- m
	r.sends.Add(1)
	r.bytes.Add(int64(m.Bytes))
	return nil
}

// Recv blocks until a message arrives for the rank.
func (r *Runtime) Recv(rank int) Message {
	return <-r.queues[rank]
}

// Probe models the neighbour-discovery query a rank must issue when it
// does not hold sterile metadata: one round-trip per queried rank.
func (r *Runtime) Probe() {
	r.probes.Add(1)
}

// Stats returns (sends, bytes, probes) so far.
func (r *Runtime) Stats() (sends, bytes, probes int64) {
	return r.sends.Load(), r.bytes.Load(), r.probes.Load()
}

// Run spawns fn on every rank and waits for completion.
func (r *Runtime) Run(fn func(rank int)) {
	var wg sync.WaitGroup
	for i := 0; i < r.NRanks; i++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			fn(rank)
		}(i)
	}
	wg.Wait()
}

// GridMeta is a sterile object: "information about the location and size
// of a grid, but not the actual solution". Small enough that every rank
// holds the entire hierarchy's worth.
type GridMeta struct {
	ID    int
	Level int
	Lo    [3]int
	N     [3]int
	Owner int
}

// Cells returns the grid's cell count (the load-balance weight basis).
func (m GridMeta) Cells() int { return m.N[0] * m.N[1] * m.N[2] }

// Catalog is the sterile-object table; with UseSterile=false it models
// the pre-optimization code that must probe other ranks to find
// neighbours.
type Catalog struct {
	UseSterile bool
	rt         *Runtime
	mu         sync.RWMutex
	metas      map[int]GridMeta
}

// NewCatalog builds a catalog over the runtime.
func NewCatalog(rt *Runtime, useSterile bool) *Catalog {
	return &Catalog{UseSterile: useSterile, rt: rt, metas: make(map[int]GridMeta)}
}

// Register adds or updates a grid's metadata (replicated to all ranks by
// construction — the map is the shared sterile table).
func (c *Catalog) Register(m GridMeta) {
	c.mu.Lock()
	c.metas[m.ID] = m
	c.mu.Unlock()
}

// Remove deletes a grid's metadata (hierarchy rebuild).
func (c *Catalog) Remove(id int) {
	c.mu.Lock()
	delete(c.metas, id)
	c.mu.Unlock()
}

// Len returns the number of registered grids.
func (c *Catalog) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.metas)
}

// Owner resolves which rank owns a grid. With sterile objects this is a
// local lookup; without them the caller pays one probe per other rank
// (worst case), which the runtime counts.
func (c *Catalog) Owner(id int) (int, bool) {
	c.mu.RLock()
	m, ok := c.metas[id]
	c.mu.RUnlock()
	if !ok {
		return -1, false
	}
	if !c.UseSterile {
		for r := 0; r < c.rt.NRanks-1; r++ {
			c.rt.Probe()
		}
	}
	return m.Owner, true
}

// Neighbours returns the IDs of grids at the same level that touch or
// overlap the halo of the given grid (metadata-only query — the operation
// sterile objects make cheap).
func (c *Catalog) Neighbours(id, halo int) []int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	g, ok := c.metas[id]
	if !ok {
		return nil
	}
	if !c.UseSterile {
		for r := 0; r < c.rt.NRanks-1; r++ {
			c.rt.Probe()
		}
	}
	var out []int
	for _, m := range c.metas {
		if m.ID == id || m.Level != g.Level {
			continue
		}
		touch := true
		for d := 0; d < 3; d++ {
			if m.Lo[d] > g.Lo[d]+g.N[d]+halo || m.Lo[d]+m.N[d] < g.Lo[d]-halo {
				touch = false
				break
			}
		}
		if touch {
			out = append(out, m.ID)
		}
	}
	return out
}
