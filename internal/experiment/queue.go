package experiment

import (
	"context"
	"fmt"
	"math/rand"
	"sync"

	"repro/sched"
	"repro/sched/gen"
	"repro/sched/graph"
	"repro/sched/system"
)

// cellSpec describes one scenario cell — a single (instance, algorithm)
// scheduling run — without materializing it: the seeds to rebuild the
// instance deterministically plus the aggregation coordinates of the
// result. Specs are ~100 bytes, so a figure of thousands of cells costs
// nothing to enumerate; graphs and systems only ever exist inside the
// worker that schedules them.
type cellSpec struct {
	kind         gen.Kind
	size         int
	gran         float64
	topo         Topology
	procs        int
	hetLo, hetHi float64
	gseed        int64 // graph generator seed
	tseed        int64 // topology seed (random topologies)
	hseed        int64 // heterogeneity seed
	seed         int64 // scheduler seed
	algo         Algorithm
	panel, row   int
	idx          int // result slot
}

// cellResult is one streamed result.
type cellResult struct {
	idx int
	sl  float64
	err error
}

// shardedQueue distributes cell specs across per-worker shards plus one
// shared overflow channel. Cells are sharded by graph seed so cells
// sharing a graph usually land on the same worker, which lets the worker's
// single-entry caches reuse the materialized graph and system across
// topologies and algorithms. The producer never blocks on a busy shard —
// it spills to the overflow, which every worker also drains — so no worker
// idles while work exists, even when there are fewer distinct graphs than
// workers.
type shardedQueue struct {
	shards   []chan cellSpec
	overflow chan cellSpec
}

func newShardedQueue(n int) *shardedQueue {
	q := &shardedQueue{
		shards:   make([]chan cellSpec, n),
		overflow: make(chan cellSpec, 4*n),
	}
	for i := range q.shards {
		q.shards[i] = make(chan cellSpec, 16)
	}
	return q
}

// put prefers the cell's home shard for cache locality but spills to the
// shared overflow instead of blocking when the shard is full or its worker
// has fallen behind.
func (q *shardedQueue) put(sp cellSpec) {
	select {
	case q.shards[uint64(sp.gseed)%uint64(len(q.shards))] <- sp:
	default:
		q.overflow <- sp
	}
}

func (q *shardedQueue) closeAll() {
	for _, ch := range q.shards {
		close(ch)
	}
	close(q.overflow)
}

// drain consumes the worker's own shard and the shared overflow until both
// are closed and empty.
func (q *shardedQueue) drain(w int, run func(cellSpec)) {
	own, overflow := q.shards[w], q.overflow
	for own != nil || overflow != nil {
		select {
		case sp, ok := <-own:
			if !ok {
				own = nil
				continue
			}
			run(sp)
		case sp, ok := <-overflow:
			if !ok {
				overflow = nil
				continue
			}
			run(sp)
		}
	}
}

// cellWorker materializes and schedules cells, reusing the previous
// instance when consecutive cells share seeds (the common case thanks to
// gseed sharding and enumeration order).
type cellWorker struct {
	gKey struct {
		kind  gen.Kind
		size  int
		gran  float64
		gseed int64
	}
	g *graph.Graph

	nKey struct {
		topo  Topology
		procs int
		tseed int64
	}
	nw *system.Network

	sKey struct {
		hetLo, hetHi float64
		hseed        int64
	}
	sys *system.System
}

func (cw *cellWorker) run(ctx context.Context, sp cellSpec) cellResult {
	if err := ctx.Err(); err != nil {
		return cellResult{idx: sp.idx, err: err}
	}
	gKey := cw.gKey
	gKey.kind, gKey.size, gKey.gran, gKey.gseed = sp.kind, sp.size, sp.gran, sp.gseed
	if cw.g == nil || gKey != cw.gKey {
		g, err := gen.Generate(gen.Spec{Kind: sp.kind, Size: sp.size, Granularity: sp.gran}, rand.New(rand.NewSource(sp.gseed)))
		if err != nil {
			return cellResult{idx: sp.idx, err: err}
		}
		cw.gKey, cw.g = gKey, g
		cw.sys = nil // system dimensions follow the graph
	}
	nKey := cw.nKey
	nKey.topo, nKey.procs, nKey.tseed = sp.topo, sp.procs, sp.tseed
	if cw.nw == nil || nKey != cw.nKey {
		nw, err := sp.topo.Build(sp.procs, rand.New(rand.NewSource(sp.tseed)))
		if err != nil {
			return cellResult{idx: sp.idx, err: err}
		}
		cw.nKey, cw.nw = nKey, nw
		cw.sys = nil
	}
	sKey := cw.sKey
	sKey.hetLo, sKey.hetHi, sKey.hseed = sp.hetLo, sp.hetHi, sp.hseed
	if cw.sys == nil || sKey != cw.sKey {
		sys, err := system.NewRandomMinNormalized(cw.nw, cw.g.NumTasks(), cw.g.NumEdges(), sp.hetLo, sp.hetHi, rand.New(rand.NewSource(sp.hseed)))
		if err != nil {
			return cellResult{idx: sp.idx, err: err}
		}
		cw.sKey, cw.sys = sKey, sys
	}
	s, err := sched.Lookup(string(sp.algo))
	if err != nil {
		return cellResult{idx: sp.idx, err: err}
	}
	res, err := s.Schedule(ctx, sched.Problem{Graph: cw.g, System: cw.sys}, sched.WithSeed(sp.seed))
	if err != nil {
		return cellResult{idx: sp.idx, err: fmt.Errorf("experiment: %s on %d-task %v graph (%s, %d procs, seed %d): %w",
			sp.algo, sp.size, sp.kind, sp.topo, sp.procs, sp.seed, err)}
	}
	return cellResult{idx: sp.idx, sl: res.Makespan}
}

// runCells drives the specs through the sharded queue with the given
// worker count and returns the per-spec schedule lengths indexed by
// cellSpec.idx. Results stream back as they complete (reported through
// progress when non-nil), but the returned slice — and therefore every
// figure aggregate — is assembled in spec order, so figures are bitwise
// reproducible regardless of worker count or completion order.
//
// ctx is checked before every cell (and inside the schedulers' own
// loops): once it is done the remaining cells drain as immediate errors
// and the run returns ctx.Err(), so canceling a long sweep aborts
// cleanly without orphaning workers.
func runCells(ctx context.Context, specs []cellSpec, workers int, progress func(done, total int)) ([]float64, error) {
	if workers < 1 {
		workers = 1
	}
	q := newShardedQueue(workers)
	results := make(chan cellResult, workers*4)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var cw cellWorker
			q.drain(w, func(sp cellSpec) {
				results <- cw.run(ctx, sp)
			})
		}(w)
	}
	go func() {
		for _, sp := range specs {
			q.put(sp)
		}
		q.closeAll()
	}()
	go func() {
		wg.Wait()
		close(results)
	}()
	sls := make([]float64, len(specs))
	var firstErr error
	done := 0
	for r := range results {
		if r.err != nil && firstErr == nil {
			firstErr = r.err
		}
		sls[r.idx] = r.sl
		done++
		if progress != nil {
			progress(done, len(specs))
		}
	}
	if firstErr != nil {
		return nil, firstErr
	}
	return sls, nil
}
