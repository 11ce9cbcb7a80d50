package core

import (
	"fmt"

	"repro/internal/schedule"
	"repro/sched/graph"
	"repro/sched/system"
)

// refBackend is the reference schedule-state backend: slot state lives
// directly in the Schedule's insertion-sorted Timelines, placements mutate
// them through PlaceMessage/PlaceTaskEarliest, and the cone update strips
// timelines lazily and re-reserves undirtied placements verbatim. It is
// the original engine implementation and the semantics every other backend
// must reproduce byte-identically.
type refBackend struct {
	en *engine
}

// rebuild recomputes the full timeline state from (serial, assign, routes).
func (b *refBackend) rebuild() {
	b.en.s.Reset()
	b.en.placeFrom(0)
}

// finalize is a no-op: the Schedule's Timelines are the live state.
func (b *refBackend) finalize() {}

func (b *refBackend) procEarliestFit(p system.ProcID, ready, dur float64) float64 {
	return b.en.s.ProcTimeline(p).EarliestFit(ready, dur)
}

func (b *refBackend) linkEarliestFitWithExtra(l system.LinkID, ready, dur float64, extra []schedule.Slot) float64 {
	return b.en.s.LinkTimeline(l).EarliestFitWithExtra(ready, dur, extra)
}

// The event-driven incremental update.
//
// A full rebuild replays (serial, assign, routes) from scratch; its result
// for any item is a deterministic function of the placements of strictly
// earlier serial turns on the timelines the item touches. updateFrom
// exploits that: after a migration only the dependency cone of the moved
// task can change, so it processes a worklist of potentially affected
// items in serial-rank order and leaves everything else exactly where it
// is — no snapshot is needed, the schedule itself holds the placements.
//
// Timelines are stripped lazily: the first time a changed item needs to
// re-place onto a timeline at rank r, every not-yet-reprocessed slot of
// rank >= r is removed (and its owner queued), so earliest-fit sees
// precisely the state a full rebuild would see at that turn. Items whose
// inputs are unchanged and whose timelines were never dirtied keep (or,
// if stripped, re-reserve verbatim) their old placement. Dirtiness is
// tracked per timeline: content diverged from the old schedule, which
// forces later items on that timeline through real placement.
//
// The result is byte-identical to a full rebuild — asserted against the
// UseFullRebuild oracle by the equivalence property tests.

// stripProc drops every not-yet-reprocessed slot of rank >= rank from p's
// timeline and queues the owners (except self, the item being processed).
func (b *refBackend) stripProc(p system.ProcID, rank int, self graph.TaskID) {
	en := b.en
	if en.procStripped[p] == en.epoch {
		return
	}
	en.procStripped[p] = en.epoch
	en.procStripAt[p] = int64(rank)
	en.s.ProcTimeline(p).FilterOwners(func(owner int64) bool {
		t := graph.TaskID(owner)
		return en.pos[t] < rank || en.taskDone[t] == en.epoch
	}, func(owner int64) {
		if t := graph.TaskID(owner); t != self {
			en.queueTask(t)
		}
	})
}

// stripLink is stripProc for a link timeline (owners are message hops).
func (b *refBackend) stripLink(l system.LinkID, rank int, self graph.EdgeID) {
	en := b.en
	if en.linkStripped[l] == en.epoch {
		return
	}
	en.linkStripped[l] = en.epoch
	en.linkStripAt[l] = int64(rank)
	en.s.LinkTimeline(l).FilterOwners(func(owner int64) bool {
		e := schedule.MsgOwnerEdge(owner)
		return en.msgPos[e] < rank || en.msgDone[e] == en.epoch
	}, func(owner int64) {
		if e := schedule.MsgOwnerEdge(owner); e != self {
			en.queueMsg(e)
		}
	})
}

// updateFrom consumes the queued cone in serial-rank order: queued items
// only ever sit at the current rank or later, so a single pass over the
// pending-rank flags replaces a priority queue. Within one rank, messages
// go in In() order before the task, as in placeFrom.
func (b *refBackend) updateFrom(mig graph.TaskID) {
	en := b.en
	n := len(en.serial)
	for rank := en.pos[mig]; rank < n && en.pending > 0; rank++ {
		if en.rankPending[rank] != en.epoch {
			continue
		}
		u := en.serial[rank]
		in := en.g.In(u)
	restart:
		for i := 0; i < len(in); i++ {
			e := in[i]
			if en.msgQueued[e] != en.epoch || en.msgDone[e] == en.epoch {
				continue
			}
			if b.processMsg(e, rank) {
				// Stripping surfaced an equal-rank sibling with an
				// earlier In() position; replay the rank in order.
				goto restart
			}
			en.pending--
			if en.pollCancel() {
				return
			}
		}
		if en.taskQueued[u] == en.epoch && en.taskDone[u] != en.epoch {
			b.processTask(u, rank)
			en.pending--
			if en.pollCancel() {
				return
			}
		}
	}
}

// markLinkDirty flags l's timeline as diverged this update.
func (en *engine) markLinkDirty(l system.LinkID) { en.linkDirtied[l] = en.epoch }

// markProcDirty is markLinkDirty for processor timelines.
func (en *engine) markProcDirty(p system.ProcID) { en.procDirtied[p] = en.epoch }

// processMsg handles one message turn of the update; it reports whether
// the message must be requeued because stripping surfaced an equal-rank
// sibling with an earlier In() position.
func (b *refBackend) processMsg(e graph.EdgeID, rank int) (requeue bool) {
	en := b.en
	edge := en.g.Edge(e)
	dirty := edge.From == en.migTask || edge.To == en.migTask ||
		en.taskChanged[edge.From] == en.epoch
	if !dirty {
		for _, l := range en.routes.route(e) {
			if en.linkDirtied[l] == en.epoch {
				dirty = true
				break
			}
		}
	}
	sm := &en.s.Msgs[e]
	if !dirty {
		// Placement unchanged; re-reserve any hop a strip dropped.
		for h := range sm.Hops {
			hop := &sm.Hops[h]
			l := hop.Link
			if en.linkStripped[l] == en.epoch && int64(rank) >= en.linkStripAt[l] {
				if err := en.s.LinkTimeline(l).ReserveExact(hop.Start, hop.End, schedule.MsgOwner(e, h)); err != nil {
					panic(fmt.Sprintf("core: update restore message %d: %v", e, err))
				}
			}
		}
		en.msgDone[e] = en.epoch
		return false
	}
	for _, hop := range sm.Hops {
		b.stripLink(hop.Link, rank, e)
	}
	for _, l := range en.routes.route(e) {
		b.stripLink(l, rank, e)
	}
	for _, e2 := range en.g.In(edge.To)[:en.inIndex[e]] {
		if en.msgQueued[e2] == en.epoch && en.msgDone[e2] != en.epoch {
			return true
		}
	}
	en.msgPlaces++
	oldArr := sm.Arrival
	en.oldHops = append(en.oldHops[:0], sm.Hops...)
	sm.Hops = sm.Hops[:0]
	sm.Arrival = 0
	sm.Placed = false
	arr, err := en.s.PlaceMessage(e, en.routes.route(e))
	if err != nil {
		panic(fmt.Sprintf("core: update message %d: %v", e, err))
	}
	hopsChanged := !hopsEqual(en.s.Msgs[e].Hops, en.oldHops)
	if hopsChanged {
		for i := range en.oldHops {
			en.markLinkDirty(en.oldHops[i].Link)
		}
		for _, hop := range en.s.Msgs[e].Hops {
			en.markLinkDirty(hop.Link)
		}
	}
	if arr != oldArr {
		en.drtTouched[edge.To] = en.epoch
		en.queueTask(edge.To)
	}
	if hopsChanged || arr != oldArr {
		// Each message is re-placed at most once per update (msgDone), so
		// the change list needs no dedup.
		en.updMsgs = append(en.updMsgs, e)
	}
	en.msgDone[e] = en.epoch
	return false
}

// processTask handles one task turn of the update.
func (b *refBackend) processTask(u graph.TaskID, rank int) {
	en := b.en
	st := &en.s.Tasks[u]
	dirty := u == en.migTask || en.drtTouched[u] == en.epoch ||
		en.procDirtied[en.assign[u]] == en.epoch
	if !dirty {
		p := st.Proc
		if en.procStripped[p] == en.epoch && int64(rank) >= en.procStripAt[p] {
			if err := en.s.ProcTimeline(p).ReserveExact(st.Start, st.End, schedule.TaskOwner(u)); err != nil {
				panic(fmt.Sprintf("core: update restore task %d: %v", u, err))
			}
		}
		en.taskDone[u] = en.epoch
		return
	}
	old := *st
	b.stripProc(old.Proc, rank, u)
	b.stripProc(en.assign[u], rank, u)
	var drt float64
	for _, e := range en.g.In(u) {
		if a := en.s.Msgs[e].Arrival; a > drt {
			drt = a
		}
	}
	*st = schedule.TaskSlot{}
	en.placements++
	if _, err := en.s.PlaceTaskEarliest(u, en.assign[u], drt); err != nil {
		panic(fmt.Sprintf("core: update task %d: %v", u, err))
	}
	if *st != old {
		en.markProcDirty(old.Proc)
		en.markProcDirty(st.Proc)
		en.taskChanged[u] = en.epoch
		if st.End > en.updEndMax {
			en.updEndMax, en.updEndArg = st.End, u
		}
		// taskChanged is set in exactly this one place, at most once per
		// task per update, so the list needs no dedup.
		en.updTasks = append(en.updTasks, u)
		for _, e := range en.g.Out(u) {
			en.queueMsg(e)
		}
	}
	en.taskDone[u] = en.epoch
}
