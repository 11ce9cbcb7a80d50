package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"

	"repro/sched"
	"repro/sched/graph"
	"repro/sched/system"
)

// digest identifies a schedule by its wire document.
type digest [sha256.Size]byte

func (d digest) String() string { return fmt.Sprintf("%x", d[:6]) }

func digestOf(doc []byte) digest { return sha256.Sum256(doc) }

// verify is the feasibility half of the correctness gate: the schedule
// passes Validate, replays in the event-driven simulator, and the
// simulated length does not exceed the static length.
func verify(s *sched.Schedule) error {
	if err := s.Validate(); err != nil {
		return fmt.Errorf("validate: %w", err)
	}
	rr, err := s.Replay()
	if err != nil {
		return fmt.Errorf("replay: %w", err)
	}
	if rr.Length > s.Length()*(1+1e-9) {
		return fmt.Errorf("replayed length %v exceeds static length %v", rr.Length, s.Length())
	}
	return nil
}

// reference is a library schedule every later result for the same
// problem, seed and delta must reproduce byte for byte.
type reference struct {
	doc    []byte
	digest digest
	// prob is the problem the schedule solves and cpMin its NSL
	// denominator.
	prob  sched.Problem
	cpMin float64
	stats sched.Stats
}

// newReference verifies res and records its document.
func newReference(res *sched.Result) (*reference, error) {
	if err := verify(res.Schedule); err != nil {
		return nil, err
	}
	doc, err := res.Schedule.MarshalJSON()
	if err != nil {
		return nil, err
	}
	p := sched.Problem{Graph: res.Schedule.Graph(), System: res.Schedule.System()}
	return &reference{doc: doc, digest: digestOf(doc), prob: p, cpMin: cpMin(p), stats: res.Stats}, nil
}

// sameAs checks a repeat against the reference.
func (r *reference) sameAs(d digest) error {
	if d != r.digest {
		return fmt.Errorf("schedule %v differs from the reference %v for the same problem, seed and delta", d, r.digest)
	}
	return nil
}

// checkWire is the correctness gate for a schedule that crossed the
// wire: the document must decode against the problem into a schedule
// that passes verify, and must be byte-identical to the library's
// schedule for the same problem and seed.
func checkWire(p sched.Problem, doc []byte, want *reference) error {
	s, err := decodeSchedule(p, doc)
	if err != nil {
		return err
	}
	if err := verify(s); err != nil {
		return err
	}
	if !bytes.Equal(doc, want.doc) {
		return want.sameAs(digestOf(doc))
	}
	return nil
}

// wireSchedule mirrors the schedule document sched.Schedule.MarshalJSON
// writes.
type wireSchedule struct {
	Tasks []struct {
		Task       string
		Proc       string
		Start, End float64
	}
	Messages []struct {
		From, To string
		Arrival  float64
		Hops     []struct {
			FromProc, ToProc string
			Start, End       float64
		}
	}
}

// decodeSchedule rebuilds a schedule from its wire document against p.
// sched.AssembleSchedule re-reserves every slot, so overlaps, broken
// routes, wrong durations and precedence violations are rejected here.
func decodeSchedule(p sched.Problem, doc []byte) (*sched.Schedule, error) {
	var w wireSchedule
	if err := json.Unmarshal(doc, &w); err != nil {
		return nil, fmt.Errorf("decode schedule: %w", err)
	}
	g, nw := p.Graph, p.System.Net
	tasks := make(map[string]graph.TaskID, g.NumTasks())
	for _, t := range g.Tasks() {
		tasks[t.Name] = t.ID
	}
	procs := make(map[string]system.ProcID, nw.NumProcs())
	for _, pr := range nw.Procs() {
		procs[pr.Name] = pr.ID
	}
	lookup := func(kind, name string, ok bool) error {
		if !ok {
			return fmt.Errorf("decode schedule: unknown %s %q", kind, name)
		}
		return nil
	}
	ts := make([]sched.TaskSlot, g.NumTasks())
	for _, wt := range w.Tasks {
		t, ok := tasks[wt.Task]
		if err := lookup("task", wt.Task, ok); err != nil {
			return nil, err
		}
		pr, ok := procs[wt.Proc]
		if err := lookup("processor", wt.Proc, ok); err != nil {
			return nil, err
		}
		ts[t] = sched.TaskSlot{Proc: pr, Start: wt.Start, End: wt.End, Placed: true}
	}
	ms := make([]sched.MessageSlot, g.NumEdges())
	for _, wm := range w.Messages {
		from, ok1 := tasks[wm.From]
		to, ok2 := tasks[wm.To]
		e, ok3 := g.FindEdge(from, to)
		if err := lookup("message", wm.From+"->"+wm.To, ok1 && ok2 && ok3); err != nil {
			return nil, err
		}
		slot := sched.MessageSlot{Arrival: wm.Arrival, Placed: true}
		for _, h := range wm.Hops {
			a, ok1 := procs[h.FromProc]
			z, ok2 := procs[h.ToProc]
			l, ok3 := nw.LinkBetween(a, z)
			if err := lookup("link", h.FromProc+"-"+h.ToProc, ok1 && ok2 && ok3); err != nil {
				return nil, err
			}
			slot.Hops = append(slot.Hops, sched.Hop{Link: l, From: a, To: z, Start: h.Start, End: h.End})
		}
		ms[e.ID] = slot
	}
	return sched.AssembleSchedule(p, ts, ms)
}
