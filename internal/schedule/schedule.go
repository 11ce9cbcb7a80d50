package schedule

import (
	"fmt"
	"math"

	"repro/sched/graph"
	"repro/sched/system"
)

// TaskSlot records where and when a task executes.
type TaskSlot struct {
	Proc   system.ProcID
	Start  float64
	End    float64
	Placed bool
}

// Hop is one link traversal of a message: the message occupies Link for
// [Start, End) while moving From -> To.
type Hop struct {
	Link  system.LinkID
	From  system.ProcID
	To    system.ProcID
	Start float64
	End   float64
}

// MsgSlot records the placement of one message: its hop sequence (empty for
// an intra-processor message) and arrival time at the destination
// processor.
type MsgSlot struct {
	Hops    []Hop
	Arrival float64
	Placed  bool
}

// Schedule is a (possibly partial) mapping of tasks to processor time slots
// and messages to link time slots for one task graph on one heterogeneous
// system.
type Schedule struct {
	G   *graph.Graph
	Sys *system.System

	Tasks []TaskSlot
	Msgs  []MsgSlot

	procTL []Timeline
	linkTL []Timeline
}

// New returns an empty schedule for g on sys.
func New(g *graph.Graph, sys *system.System) *Schedule {
	return &Schedule{
		G:      g,
		Sys:    sys,
		Tasks:  make([]TaskSlot, g.NumTasks()),
		Msgs:   make([]MsgSlot, g.NumEdges()),
		procTL: make([]Timeline, sys.Net.NumProcs()),
		linkTL: make([]Timeline, sys.Net.NumLinks()),
	}
}

// Reset clears all placements, retaining allocations.
func (s *Schedule) Reset() {
	for i := range s.Tasks {
		s.Tasks[i] = TaskSlot{}
	}
	for i := range s.Msgs {
		s.Msgs[i].Hops = s.Msgs[i].Hops[:0]
		s.Msgs[i].Arrival = 0
		s.Msgs[i].Placed = false
	}
	for i := range s.procTL {
		s.procTL[i].Reset()
	}
	for i := range s.linkTL {
		s.linkTL[i].Reset()
	}
}

// ProcTimeline returns the timeline of processor p.
func (s *Schedule) ProcTimeline(p system.ProcID) *Timeline { return &s.procTL[p] }

// LinkTimeline returns the timeline of link l.
func (s *Schedule) LinkTimeline(l system.LinkID) *Timeline { return &s.linkTL[l] }

// Owner tokens: processor slots are owned by the task ID; link slots by the
// edge ID shifted to keep hop indices distinguishable.
func taskOwner(t graph.TaskID) int64 { return int64(t) }

// TaskOwner returns the processor-slot owner token of task t, for callers
// that manipulate timelines directly (the incremental BSA engine).
func TaskOwner(t graph.TaskID) int64 { return taskOwner(t) }

// MsgOwner returns the link-slot owner token for hop h of edge e.
func MsgOwner(e graph.EdgeID, hop int) int64 { return int64(e)<<20 | int64(hop) }

// MsgOwnerEdge recovers the edge ID from a link-slot owner token.
func MsgOwnerEdge(owner int64) graph.EdgeID { return graph.EdgeID(owner >> 20) }

// ExecDuration returns the actual execution duration of t on p.
func (s *Schedule) ExecDuration(t graph.TaskID, p system.ProcID) float64 {
	return s.Sys.ExecCost(int(t), p, s.G.Task(t).Cost)
}

// HopDuration returns the actual duration of edge e crossing link l.
func (s *Schedule) HopDuration(e graph.EdgeID, l system.LinkID) float64 {
	return s.Sys.CommCost(int(e), l, s.G.Edge(e).Cost)
}

// PlaceTask reserves [start, start+dur) for t on p, where dur is the actual
// execution cost. It fails if t is already placed or the slot overlaps.
func (s *Schedule) PlaceTask(t graph.TaskID, p system.ProcID, start float64) error {
	if s.Tasks[t].Placed {
		return fmt.Errorf("schedule: task %d already placed", t)
	}
	dur := s.ExecDuration(t, p)
	if err := s.procTL[p].Reserve(start, dur, taskOwner(t)); err != nil {
		return fmt.Errorf("schedule: task %d on P%d: %w", t, p+1, err)
	}
	s.Tasks[t] = TaskSlot{Proc: p, Start: start, End: start + dur, Placed: true}
	return nil
}

// PlaceTaskEarliest reserves t on p at the earliest insertion slot whose
// start is >= ready and returns the start time.
func (s *Schedule) PlaceTaskEarliest(t graph.TaskID, p system.ProcID, ready float64) (float64, error) {
	if s.Tasks[t].Placed {
		return 0, fmt.Errorf("schedule: task %d already placed", t)
	}
	dur := s.ExecDuration(t, p)
	start := s.procTL[p].ReserveEarliest(ready, dur, taskOwner(t))
	s.Tasks[t] = TaskSlot{Proc: p, Start: start, End: start + dur, Placed: true}
	return start, nil
}

// UnplaceTask removes t's processor reservation.
func (s *Schedule) UnplaceTask(t graph.TaskID) {
	if !s.Tasks[t].Placed {
		return
	}
	s.procTL[s.Tasks[t].Proc].RemoveOwner(taskOwner(t))
	s.Tasks[t] = TaskSlot{}
}

// PlaceMessage schedules edge e hop-by-hop along route (a contiguous link
// path from the placed sender's processor). Each hop takes the earliest
// insertion slot on its link no earlier than the previous hop's finish
// (store-and-forward); the first hop is ready at the sender's finish time.
// An empty route requires no link usage and arrival equals the sender's
// finish. The sender must already be placed.
func (s *Schedule) PlaceMessage(e graph.EdgeID, route []system.LinkID) (float64, error) {
	return s.placeMessage(e, route, true)
}

// PlaceMessageAppend is PlaceMessage with append-only link reservations:
// each hop starts no earlier than the last reservation already on its link
// (no back-filling of idle gaps). This models schedulers that allocate
// link bandwidth strictly in scheduling order, like classic DLS.
func (s *Schedule) PlaceMessageAppend(e graph.EdgeID, route []system.LinkID) (float64, error) {
	return s.placeMessage(e, route, false)
}

func (s *Schedule) placeMessage(e graph.EdgeID, route []system.LinkID, insertion bool) (float64, error) {
	if s.Msgs[e].Placed {
		return 0, fmt.Errorf("schedule: message %d already placed", e)
	}
	edge := s.G.Edge(e)
	from := &s.Tasks[edge.From]
	if !from.Placed {
		return 0, fmt.Errorf("schedule: message %d sender task %d not placed", e, edge.From)
	}
	ready := from.End
	p := from.Proc
	hops := s.Msgs[e].Hops[:0]
	for hi, l := range route {
		lk := s.Sys.Net.Link(l)
		if !lk.Has(p) {
			// Roll back hops reserved so far.
			for h := range hops {
				s.linkTL[hops[h].Link].RemoveOwner(MsgOwner(e, h))
			}
			return 0, fmt.Errorf("schedule: message %d route hop %d (link %d) does not touch P%d", e, hi, l, p+1)
		}
		dur := s.HopDuration(e, l)
		var start float64
		if insertion {
			start = s.linkTL[l].ReserveEarliest(ready, dur, MsgOwner(e, hi))
		} else {
			start = ready
			if end := s.linkTL[l].End(); end > start {
				start = end
			}
			if err := s.linkTL[l].Reserve(start, dur, MsgOwner(e, hi)); err != nil {
				panic(err) // cannot overlap: start >= end of last slot
			}
		}
		next := lk.Other(p)
		hops = append(hops, Hop{Link: l, From: p, To: next, Start: start, End: start + dur})
		ready = start + dur
		p = next
	}
	s.Msgs[e] = MsgSlot{Hops: hops, Arrival: ready, Placed: true}
	return ready, nil
}

// UnplaceMessage removes all link reservations of edge e.
func (s *Schedule) UnplaceMessage(e graph.EdgeID) {
	if !s.Msgs[e].Placed {
		return
	}
	for h, hop := range s.Msgs[e].Hops {
		s.linkTL[hop.Link].RemoveOwner(MsgOwner(e, h))
	}
	s.Msgs[e].Hops = s.Msgs[e].Hops[:0]
	s.Msgs[e].Arrival = 0
	s.Msgs[e].Placed = false
}

// Arrival returns the data arrival time of edge e at its destination's
// processor. For an intra-processor message this is the sender's finish
// time.
func (s *Schedule) Arrival(e graph.EdgeID) float64 { return s.Msgs[e].Arrival }

// DRT returns the data ready time of task t given all its incoming messages
// are placed, together with the VIP — the predecessor whose message arrives
// last (the paper's "very important predecessor"). A task with no
// predecessors has DRT 0 and VIP -1.
func (s *Schedule) DRT(t graph.TaskID) (float64, graph.TaskID) {
	var drt float64
	vip := graph.TaskID(-1)
	for _, e := range s.G.In(t) {
		a := s.Msgs[e].Arrival
		if a > drt || vip < 0 {
			drt = a
			vip = s.G.Edge(e).From
		}
	}
	return drt, vip
}

// Length returns the schedule length (makespan): the maximum task finish
// time over all placed tasks.
func (s *Schedule) Length() float64 {
	var sl float64
	for i := range s.Tasks {
		if s.Tasks[i].Placed && s.Tasks[i].End > sl {
			sl = s.Tasks[i].End
		}
	}
	return sl
}

// TotalComm returns the total time messages occupy links (the paper's
// "total communication costs").
func (s *Schedule) TotalComm() float64 {
	var c float64
	for i := range s.Msgs {
		for _, h := range s.Msgs[i].Hops {
			c += h.End - h.Start
		}
	}
	return c
}

// Complete reports whether every task (and hence every message) is placed.
func (s *Schedule) Complete() bool {
	for i := range s.Tasks {
		if !s.Tasks[i].Placed {
			return false
		}
	}
	return true
}

// ProcOf returns the processor of a placed task.
func (s *Schedule) ProcOf(t graph.TaskID) system.ProcID { return s.Tasks[t].Proc }

// Clone returns a deep copy of the schedule (sharing the immutable graph
// and system).
func (s *Schedule) Clone() *Schedule {
	c := &Schedule{
		G:      s.G,
		Sys:    s.Sys,
		Tasks:  append([]TaskSlot(nil), s.Tasks...),
		Msgs:   make([]MsgSlot, len(s.Msgs)),
		procTL: make([]Timeline, len(s.procTL)),
		linkTL: make([]Timeline, len(s.linkTL)),
	}
	for i := range s.Msgs {
		c.Msgs[i] = MsgSlot{
			Hops:    append([]Hop(nil), s.Msgs[i].Hops...),
			Arrival: s.Msgs[i].Arrival,
			Placed:  s.Msgs[i].Placed,
		}
	}
	for i := range s.procTL {
		c.procTL[i] = s.procTL[i].clone()
	}
	for i := range s.linkTL {
		c.linkTL[i] = s.linkTL[i].clone()
	}
	return c
}

// MaxFinish returns the latest time anything (task or message hop) happens.
func (s *Schedule) MaxFinish() float64 {
	end := s.Length()
	for i := range s.linkTL {
		end = math.Max(end, s.linkTL[i].End())
	}
	return end
}
