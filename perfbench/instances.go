package main

import (
	"context"
	"fmt"
	"math/rand"

	"repro/sched"
	"repro/sched/gen"
	"repro/sched/graph"
	"repro/sched/system"
)

// Instance parameters shared by every workload: the paper's random
// suite (costs in [100, 200], granularity 1) on heterogeneous systems
// whose factors are drawn from [hetLo, hetHi] and min-normalized.
const (
	granularity = 1.0
	hetLo       = 1.0
	hetHi       = 50.0
)

// subSeed derives an independent, positive seed from the workload seed
// and a path of small integers (workload, role, index), so every
// instance, op sequence and delta is a pure function of --seed.
func subSeed(seed int64, path ...int64) int64 {
	h := uint64(seed)
	for _, p := range path {
		h = splitmix(h ^ splitmix(uint64(p)+0x9e3779b97f4a7c15))
	}
	return int64(h>>2) | 1
}

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// topo names one generated network: a sched/gen topology family, its
// processor count and (for meshes and tori) its row count.
type topo struct {
	kind  string
	procs int
	rows  int
}

func (t topo) String() string {
	if t.rows > 0 {
		return fmt.Sprintf("%s-%dx%d", t.kind, t.rows, t.procs/t.rows)
	}
	return fmt.Sprintf("%s-%d", t.kind, t.procs)
}

// network builds t exactly as the scheduling service builds a requested
// topology (seed 1 for the only randomized family), so library and
// service instances coincide.
func (t topo) network() (*system.Network, error) {
	kind, err := gen.TopoKindByName(t.kind)
	if err != nil {
		return nil, err
	}
	return gen.Topology(gen.TopoSpec{Kind: kind, Procs: t.procs, Rows: t.rows}, rand.New(rand.NewSource(1)))
}

// instance is one scheduling problem and the tie-breaking seed every
// scheduler call on it uses.
type instance struct {
	name string
	prob sched.Problem
	seed int64
}

// spec describes how to generate an instance, so the traced run can time
// generation on its own.
type spec struct {
	name    string
	tasks   int
	topo    topo
	graphSd int64
	hetSd   int64
	seed    int64
}

func (s spec) generate() (instance, error) {
	g, err := gen.RandomLayered(s.tasks, granularity, rand.New(rand.NewSource(s.graphSd)))
	if err != nil {
		return instance{}, err
	}
	nw, err := s.topo.network()
	if err != nil {
		return instance{}, err
	}
	sys, err := system.NewRandomMinNormalized(nw, g.NumTasks(), g.NumEdges(), hetLo, hetHi, rand.New(rand.NewSource(s.hetSd)))
	if err != nil {
		return instance{}, err
	}
	p, err := sched.NewProblem(g, sys)
	if err != nil {
		return instance{}, err
	}
	return instance{name: s.name, prob: p, seed: s.seed}, nil
}

// cpMin returns the denominator of the normalized schedule length: the
// sum over the critical path's tasks of each task's minimum execution
// cost over all processors, the critical path being taken under those
// minimum costs and nominal communication costs.
func cpMin(p sched.Problem) float64 {
	g, sys := p.Graph, p.System
	minExec := make([]float64, g.NumTasks())
	for t := range minExec {
		f := sys.Exec[t][0]
		for _, x := range sys.Exec[t][1:] {
			f = min(f, x)
		}
		minExec[t] = g.Task(graph.TaskID(t)).Cost * f
	}
	sum := 0.0
	for _, t := range graph.CriticalPath(g, minExec, nil, nil) {
		sum += minExec[t]
	}
	return sum
}

// sequence returns a seeded, balanced op sequence of length ops over k
// items: every item appears ops/k or ops/k+1 times, in shuffled order.
func sequence(seed int64, ops, k int) []int {
	seq := make([]int, ops)
	for i := range seq {
		seq[i] = i % k
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(seq), func(i, j int) { seq[i], seq[j] = seq[j], seq[i] })
	return seq
}

// deltaKinds is the rotation of live-system changes schedd-mixed's
// reschedule ops apply, one kind per delta.
var deltaKinds = []string{"remove-proc", "remove-link", "raise-exec", "append"}

// makeDelta builds a delta of the given kind against a scheduled
// problem, drawing its targets with rng from all processors, links and
// tasks. Every kind keeps the network connected on the topologies used
// here (ring, mesh, torus, hypercube: all 2-connected), so no delta fails
// to apply.
func makeDelta(kind string, prev *sched.Result, rng *rand.Rand) (sched.Delta, error) {
	s := prev.Schedule
	g, nw := s.Graph(), s.System().Net
	b := sched.NewDeltaBuilder()
	switch kind {
	case "remove-proc":
		b.RemoveProc(nw.Proc(system.ProcID(rng.Intn(nw.NumProcs()))).Name)
	case "remove-link":
		l := nw.Link(system.LinkID(rng.Intn(nw.NumLinks())))
		b.RemoveLink(nw.Proc(l.A).Name, nw.Proc(l.B).Name)
	case "raise-exec":
		// A few tasks become 4x slower where they run now, so the
		// adopted placement is no longer the one BSA would pick.
		for _, i := range rng.Perm(g.NumTasks())[:min(4, g.NumTasks())] {
			t := graph.TaskID(i)
			p := s.ProcOf(t)
			b.SetExecFactor(g.Task(t).Name, nw.Proc(p).Name, 4*s.System().Exec[t][p])
		}
	case "append":
		for k := 0; k < 4; k++ {
			name := fmt.Sprintf("bench_new%d", k)
			b.AddTask(name, 100+float64(rng.Intn(101)))
			for _, i := range rng.Perm(g.NumTasks())[:min(2, g.NumTasks())] {
				b.AddEdge(g.Task(graph.TaskID(i)).Name, name, 50+float64(rng.Intn(101)))
			}
		}
	default:
		return sched.Delta{}, fmt.Errorf("unknown delta kind %q", kind)
	}
	return b.Build()
}

// scheduleBSA runs the registry's "bsa" scheduler on inst.
func scheduleBSA(ctx context.Context, inst instance, opts ...sched.Option) (*sched.Result, error) {
	bsa, err := sched.Lookup("bsa")
	if err != nil {
		return nil, err
	}
	return bsa.Schedule(ctx, inst.prob, append([]sched.Option{sched.WithSeed(inst.seed)}, opts...)...)
}
