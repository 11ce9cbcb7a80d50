package sched

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/schedule"
	"repro/sched/graph"
	"repro/sched/system"
)

// ErrIncompleteResult is reported by Reschedule when the previous result
// carries no complete schedule to warm-start from.
var ErrIncompleteResult = errors.New("sched: reschedule requires a previous result with a complete schedule")

// Reschedule is the quasi-dynamic entry point: it applies delta to the
// problem prev was computed for and reconverges BSA starting from prev's
// schedule instead of from scratch.
//
// The warm start adopts the previous schedule as the engine's ground
// truth — the serialization is the previous start-time order (appended
// tasks join at the end in topological order), assignments and routes
// carry over, with tasks on removed processors falling back to the
// nearest surviving neighbour and severed routes re-routed shortest-path
// — and then runs BSA's breadth-first migration sweeps restricted to the
// dirty frontier the delta actually touched. After each kept migration
// the frontier grows by exactly that commit's dependency cone (the
// candidate cache's commit stamps), so reconvergence after a small delta
// evaluates a small fraction of the candidates a cold run would
// (Result.Stats "evaluations", "dirty_tasks").
//
// prev may come from any registered algorithm — only its Schedule is
// used. The result is a fresh, complete, validated schedule for the
// post-delta problem (obtainable separately via Delta.Apply), with
// Algorithm "bsa" and a *RescheduleTrace attached. Reschedule is
// deterministic: the same prev, delta and options produce a byte-
// identical schedule, wherever it runs.
//
// Typed errors: ErrIncompleteResult for an unusable prev, and the
// Delta.Apply family (*UnknownProcError, *DisconnectedError, ...) for a
// delta that does not resolve against prev's problem. ctx is polled
// between migration decisions exactly as in Scheduler.Schedule.
func Reschedule(ctx context.Context, prev Result, delta Delta, opts ...Option) (*Result, error) {
	start := time.Now()
	if prev.Schedule == nil || prev.Schedule.s == nil {
		return nil, ErrIncompleteResult
	}
	ps := prev.Schedule.s
	if !ps.Complete() {
		return nil, ErrIncompleteResult
	}
	g, sys := ps.G, ps.Sys

	rd, err := delta.resolve(Problem{Graph: g, System: sys})
	if err != nil {
		return nil, err
	}
	cfg := NewConfig(opts...)

	g2, sys2 := rd.g2, rd.sys2
	n2, oldN := g2.NumTasks(), rd.oldTasks

	dirtySeen := make([]bool, n2)
	var dirty []graph.TaskID
	markDirty := func(t graph.TaskID) {
		if !dirtySeen[t] {
			dirtySeen[t] = true
			dirty = append(dirty, t)
		}
	}

	// Serialization: the previous schedule's start-time order is a linear
	// extension of the old graph (tasks have positive durations, so an
	// edge's sender always starts strictly before its receiver), and
	// appended tasks only depend on earlier tasks, so topological order at
	// the tail keeps the whole order valid.
	serial := make([]graph.TaskID, 0, n2)
	for t := 0; t < oldN; t++ {
		serial = append(serial, graph.TaskID(t))
	}
	sort.Slice(serial, func(i, j int) bool {
		a, b := serial[i], serial[j]
		sa, sb := ps.Tasks[a].Start, ps.Tasks[b].Start
		if sa != sb {
			return sa < sb
		}
		return a < b
	})
	if n2 > oldN {
		topo, err := graph.TopologicalOrder(g2)
		if err != nil {
			return nil, err
		}
		for _, t := range topo {
			if int(t) >= oldN {
				serial = append(serial, t)
			}
		}
	}

	// Assignments carry over; tasks stranded on a removed processor are
	// spread deterministically over its surviving neighbours (or all
	// survivors) instead of piling onto one — the sweeps then fine-tune a
	// balanced adoption rather than drain a hotspot — and join the dirty
	// frontier. Appended tasks start beside their first predecessor.
	assign := make([]system.ProcID, n2)
	fallbacks := make(map[system.ProcID][]system.ProcID)
	for t := 0; t < oldN; t++ {
		p := ps.Tasks[t].Proc
		if np := rd.procMap[p]; np >= 0 {
			assign[t] = np
			continue
		}
		cands, ok := fallbacks[p]
		if !ok {
			cands = fallbackProcs(sys.Net, rd.procMap, p)
			fallbacks[p] = cands
		}
		assign[t] = cands[t%len(cands)]
		markDirty(graph.TaskID(t))
	}
	for _, t := range serial[oldN:] {
		assign[t] = 0
		for _, e := range g2.In(t) {
			assign[t] = assign[g2.Edge(e).From]
			break
		}
		markDirty(t)
	}

	// Routes: a previous route whose links all survived and still connects
	// the adopted endpoints is kept verbatim; anything severed (and every
	// appended edge) is re-routed shortest-path.
	rt := system.NewRoutingTable(sys2.Net)
	routes := make([][]system.LinkID, g2.NumEdges())
	for e := 0; e < g2.NumEdges(); e++ {
		edge := g2.Edge(graph.EdgeID(e))
		src, dst := assign[edge.From], assign[edge.To]
		if src == dst {
			continue
		}
		if e < rd.oldEdges {
			hops := ps.Msgs[e].Hops
			mapped := make([]system.LinkID, 0, len(hops))
			ok := true
			for _, h := range hops {
				nl := rd.linkMap[h.Link]
				if nl < 0 {
					ok = false
					break
				}
				mapped = append(mapped, nl)
			}
			if ok && system.ValidRoute(sys2.Net, src, dst, mapped) {
				routes[e] = mapped
				continue
			}
		}
		routes[e] = rt.Route(src, dst, nil)
	}

	// Factor changes dirty their targets even when the adopted slots end
	// up unchanged: the candidate decision for those tasks changed.
	for _, t := range rd.touched {
		markDirty(t)
	}

	// The previous slots, remapped into the post-delta ID space, let the
	// engine diff its adopted timelines against what actually ran before
	// and widen the frontier by whatever adoption itself displaced.
	prevTasks := make([]schedule.TaskSlot, n2)
	for t := 0; t < oldN; t++ {
		slot := ps.Tasks[t]
		if np := rd.procMap[slot.Proc]; np >= 0 {
			slot.Proc = np
			prevTasks[t] = slot
		}
	}
	prevMsgs := make([]schedule.MsgSlot, g2.NumEdges())
	for e := 0; e < rd.oldEdges; e++ {
		ms := ps.Msgs[e]
		hops := make([]schedule.Hop, 0, len(ms.Hops))
		ok := true
		for _, h := range ms.Hops {
			nl := rd.linkMap[h.Link]
			na, nb := rd.procMap[h.From], rd.procMap[h.To]
			if nl < 0 || na < 0 || nb < 0 {
				ok = false
				break
			}
			hops = append(hops, schedule.Hop{Link: nl, From: na, To: nb, Start: h.Start, End: h.End})
		}
		if !ok {
			continue
		}
		prevMsgs[e] = schedule.MsgSlot{Hops: hops, Arrival: ms.Arrival, Placed: true}
	}

	res, err := core.RescheduleContext(ctx, g2, sys2, core.WarmStart{
		Serial:    serial,
		Assign:    assign,
		Routes:    routes,
		Dirty:     dirty,
		PrevTasks: prevTasks,
		PrevMsgs:  prevMsgs,
	}, core.Options{
		Seed:                  cfg.Seed,
		MaxSweeps:             cfg.MaxSweeps,
		GuardSlack:            cfg.GuardSlack,
		DisableVIPFollow:      !cfg.VIPFollow,
		DisableRoutePruning:   !cfg.RoutePruning,
		DisableMigrationGuard: !cfg.MigrationGuard,
	})
	if err != nil {
		return nil, err
	}

	out := &Result{
		Algorithm: "bsa",
		Schedule:  &Schedule{s: res.Schedule},
		Makespan:  res.Schedule.Length(),
		Elapsed:   time.Since(start),
		Summary: fmt.Sprintf("bsa reschedule: %d delta ops, %d dirty tasks, %d migrations in %d sweeps (%d reverted)",
			delta.NumOps(), res.DirtyTasks, res.Migrations, res.Sweeps, res.Reverted),
		Stats: Stats{
			"delta_ops":      float64(delta.NumOps()),
			"dirty_tasks":    float64(res.DirtyTasks),
			"migrations":     float64(res.Migrations),
			"reverted":       float64(res.Reverted),
			"sweeps":         float64(res.Sweeps),
			"evaluations":    float64(res.Evaluations),
			"rebuilds":       float64(res.Rebuilds),
			"placements":     float64(res.Placements),
			"msg_placements": float64(res.MsgPlacements),
			"cache_hits":     float64(res.CacheHits),
			"cache_partials": float64(res.CachePartials),
			"cache_misses":   float64(res.CacheMisses),
			"bound_skips":    float64(res.BoundSkips),
		},
	}
	out.SetTrace(&RescheduleTrace{
		DeltaOps:      delta.NumOps(),
		DirtyTasks:    res.DirtyTasks,
		Serial:        res.Serial,
		Migrations:    res.Migrations,
		Reverted:      res.Reverted,
		Sweeps:        res.Sweeps,
		Evaluations:   res.Evaluations,
		Rebuilds:      res.Rebuilds,
		Placements:    res.Placements,
		MsgPlacements: res.MsgPlacements,
		CacheHits:     res.CacheHits,
		CachePartials: res.CachePartials,
		CacheMisses:   res.CacheMisses,
		BoundSkips:    res.BoundSkips,
		RestoredBest:  res.RestoredBest,
	})
	return out, nil
}

// fallbackProcs lists the post-delta processors tasks stranded on removed
// processor p fall back to: its surviving old-network neighbours, or all
// survivors when every neighbour was removed too.
func fallbackProcs(old *system.Network, procMap []system.ProcID, p system.ProcID) []system.ProcID {
	var cands []system.ProcID
	for _, a := range old.Neighbors(p) {
		if np := procMap[a.Proc]; np >= 0 {
			cands = append(cands, np)
		}
	}
	if len(cands) == 0 {
		for _, np := range procMap {
			if np >= 0 {
				cands = append(cands, np)
			}
		}
	}
	return cands // non-empty: resolve guarantees at least one survivor
}
