package core

import (
	"math"

	"repro/sched/graph"
	"repro/sched/system"
)

// candCache is the sweep-level candidate cache: it memoizes, per task, the
// row of finish times obtained by evaluating that task against every
// neighbour of its current processor, together with the row's reduction to
// the migration decision's aggregates (the argmin neighbour and the VIP
// neighbour's finish time), and tracks exactly which state each memo
// depends on so that a committed migration re-evaluates only what its
// dependency cone touched.
//
// Dependencies are tracked with monotonic commit stamps instead of reverse
// maps: every kept commit increments commitC and stamps the tasks whose
// slots changed, the messages whose hop schedules or arrivals changed, and
// the processor/link timelines whose contents diverged — the same change
// sets the incremental engine's updateFrom already derives (its epoch
// flags), accumulated into lists as they are discovered. A row evaluated
// at stamp s then splits its dependencies by granularity:
//
//   - task-level: the task's own slot, its predecessors' slots and its
//     incoming messages. Evaluating ANY neighbour reads these, so a stamp
//     > s invalidates the whole row.
//   - entry-level: candidate processor y's timeline and the pivot->y
//     link's timeline. Only the (task, y) entry reads them, so a stamp
//     > s forces re-evaluation of just that entry; the rest of the row is
//     reused and only the O(degree) reduction reruns.
//
// Entry granularity is what makes the cache effective mid-sweep: a commit
// dirties its target processor, which is a neighbour of every pivot on
// dense topologies — with whole-row invalidation every commit would wipe
// the cache, while per-entry invalidation re-evaluates one column.
//
// Reverted commits stamp nothing: a rollback restores byte-identical
// state, so rows cached before the attempt stay valid. The validity
// check is a handful of integer compares per row, so a sweep over an
// equilibrated region costs O(tasks) compares instead of
// O(tasks x neighbors) timeline walks — migration sweeps become O(dirty).
type candCache struct {
	commitC uint64 // kept-commit counter; starts at 1 so stamp 0 = "never"

	// Last kept commit that changed each resource.
	taskStamp []uint64 // the task's slot (start/end/processor)
	msgStamp  []uint64 // the message's hop schedule or arrival
	procStamp []uint64 // the processor timeline's contents
	linkStamp []uint64 // the link timeline's contents

	// Change lists accumulated by the current updateFrom pass; stamped on a
	// kept commit, discarded on a revert.
	updTasks []graph.TaskID
	updMsgs  []graph.EdgeID
	updProcs []system.ProcID
	updLinks []system.LinkID

	// Cached per-task rows and their reductions. rowStamp is the commitC
	// the row was last brought current at (0 = never evaluated); rowProc
	// the pivot it was evaluated on.
	rowStamp []uint64
	rowProc  []system.ProcID
	rowFT    [][]float64
	bestFT   []float64
	bestY    []system.ProcID
	vipFT    []float64
	vipY     []system.ProcID

	hits    int // rows served with zero evaluations
	partial int // rows served after re-evaluating only stale entries
	misses  int // rows evaluated in full
}

func newCandCache(numTasks, numEdges, numProcs, numLinks int) *candCache {
	return &candCache{
		commitC:   1,
		taskStamp: make([]uint64, numTasks),
		msgStamp:  make([]uint64, numEdges),
		procStamp: make([]uint64, numProcs),
		linkStamp: make([]uint64, numLinks),
		rowStamp:  make([]uint64, numTasks),
		rowProc:   make([]system.ProcID, numTasks),
		rowFT:     make([][]float64, numTasks),
		bestFT:    make([]float64, numTasks),
		bestY:     make([]system.ProcID, numTasks),
		vipFT:     make([]float64, numTasks),
		vipY:      make([]system.ProcID, numTasks),
	}
}

// beginUpdate discards the previous change lists; updateFrom calls it
// before accumulating a new pass.
func (c *candCache) beginUpdate() {
	c.updTasks = c.updTasks[:0]
	c.updMsgs = c.updMsgs[:0]
	c.updProcs = c.updProcs[:0]
	c.updLinks = c.updLinks[:0]
}

// stampCommit seals a kept commit: the accumulated change lists receive a
// fresh stamp, invalidating exactly the rows and entries that read them.
func (c *candCache) stampCommit() {
	c.commitC++
	v := c.commitC
	for _, u := range c.updTasks {
		c.taskStamp[u] = v
	}
	for _, e := range c.updMsgs {
		c.msgStamp[e] = v
	}
	for _, p := range c.updProcs {
		c.procStamp[p] = v
	}
	for _, l := range c.updLinks {
		c.linkStamp[l] = v
	}
}

// rowLevelStale reports whether t's cached row cannot be reused at row
// level for pivot: never evaluated, evaluated on another pivot, or a
// task-level dependency (its own slot, a predecessor's slot, an incoming
// message) was stamped since.
func (en *engine) rowLevelStale(t graph.TaskID, pivot system.ProcID) bool {
	c := en.cache
	rs := c.rowStamp[t]
	if rs == 0 || c.rowProc[t] != pivot || c.taskStamp[t] > rs {
		return true
	}
	for _, e := range en.g.In(t) {
		if c.msgStamp[e] > rs || c.taskStamp[en.g.Edge(e).From] > rs {
			return true
		}
	}
	return false
}

// ensureRow brings t's cached row current for the given pivot — reusing
// it outright when nothing it reads was stamped, re-evaluating only the
// entries whose candidate processor or connecting link was stamped, or
// evaluating the full row when a task-level dependency changed — and
// leaves the decision aggregates in bestFT/bestY/vipFT/vipY.
func (en *engine) ensureRow(t graph.TaskID, pivot system.ProcID, neighbors []system.Adj) {
	c := en.cache
	var stale []bool // nil: every entry is stale
	if en.rowLevelStale(t, pivot) {
		if cap(c.rowFT[t]) < len(neighbors) {
			c.rowFT[t] = make([]float64, len(neighbors))
		}
		c.rowFT[t] = c.rowFT[t][:len(neighbors)]
		c.misses++
	} else {
		rs := c.rowStamp[t]
		stale = en.staleBuf[:0]
		n := 0
		for _, a := range neighbors {
			st := c.procStamp[a.Proc] > rs || c.linkStamp[a.Link] > rs
			if st {
				n++
			}
			stale = append(stale, st)
		}
		en.staleBuf = stale
		if n == 0 {
			c.hits++
			return
		}
		c.partial++
	}
	row := c.rowFT[t]
	en.evalRow(t, neighbors, row, stale)
	c.bestFT[t], c.bestY[t], c.vipFT[t], c.vipY[t] = en.reduceRow(t, neighbors, row)
	c.rowStamp[t] = c.commitC
	c.rowProc[t] = pivot
}

// reduceRow folds one row of candidate finish times into the migration
// decision's aggregates: the strictly-best neighbour (first wins ties, as
// in BFS adjacency order) and the neighbour hosting t's VIP, if any.
func (en *engine) reduceRow(t graph.TaskID, neighbors []system.Adj, row []float64) (bestFT float64, bestY system.ProcID, vipFT float64, vipY system.ProcID) {
	_, vip := en.s.DRT(t)
	bestFT = math.Inf(1)
	bestY, vipY = -1, -1
	for ni, a := range neighbors {
		ft := row[ni]
		if ft < bestFT-cmpEps {
			bestFT, bestY = ft, a.Proc
		}
		if vip >= 0 && en.assign[vip] == a.Proc {
			vipFT, vipY = ft, a.Proc
		}
	}
	return bestFT, bestY, vipFT, vipY
}
