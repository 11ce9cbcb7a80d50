package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/sched"
	"repro/sched/graph"
	"repro/sched/system"
)

// Workload identifiers in subSeed paths.
const (
	wDense = iota + 1
	wSparse
	wSchedd
)

// Roles in subSeed paths.
const (
	rGraph = iota + 1
	rHet
	rSched
	rSeq
	rDelta
)

// libOp is one distinct library call of a workload's rotation: a cold
// schedule of inst.
type libOp struct {
	key  string
	inst *instance
	// ref is the op's first verified result, which every repeat must
	// reproduce byte for byte.
	ref *reference
}

func (op *libOp) call(ctx context.Context, opts ...sched.Option) (*sched.Result, error) {
	return scheduleBSA(ctx, *op.inst, opts...)
}

// check verifies an op's result: the first one becomes the reference,
// every later one must be byte-identical to it.
func (op *libOp) check(res *sched.Result) ([]byte, digest, error) {
	if op.ref == nil {
		ref, err := newReference(res)
		if err != nil {
			return nil, digest{}, err
		}
		// Repeats need only the digest; keeping every op's document and
		// problem would dominate the live heap.
		op.ref = &reference{digest: ref.digest, cpMin: ref.cpMin, stats: ref.stats}
		return ref.doc, ref.digest, nil
	}
	doc, err := res.Schedule.MarshalJSON()
	if err != nil {
		return nil, digest{}, err
	}
	d := digestOf(doc)
	return doc, d, op.ref.sameAs(d)
}

// libBench runs a single closed-loop caller through the library.
type libBench struct {
	specs []spec
	insts []instance
	ops   []libOp
	seq   []int
}

func (b *libBench) close() {}

// coldBench generates a cold-scheduling workload of ops calls, each on a
// distinct instance, the topologies interleaved, in a shuffled sequence.
// The first warm instances of each topology are also scheduled once
// during setup, so their timed calls repeat a verified result and must
// reproduce it byte for byte.
func coldBench(ctx context.Context, cfg config, wl int64, topos []topo, tasks, ops, warm int) (*libBench, error) {
	b := &libBench{}
	perTopo := max(1, ops/len(topos))
	for i := 0; i < perTopo; i++ {
		for ti, tp := range topos {
			k := int64(i*len(topos) + ti)
			s := spec{
				name:    fmt.Sprintf("%s/g%d", tp, i),
				tasks:   tasks,
				topo:    tp,
				graphSd: subSeed(cfg.seed, wl, rGraph, k),
				hetSd:   subSeed(cfg.seed, wl, rHet, k),
				seed:    subSeed(cfg.seed, wl, rSched, k),
			}
			inst, err := s.generate()
			if err != nil {
				return nil, fmt.Errorf("%s: %w", s.name, err)
			}
			b.specs = append(b.specs, s)
			b.insts = append(b.insts, inst)
		}
	}
	for i := range b.insts {
		b.ops = append(b.ops, libOp{key: b.insts[i].name, inst: &b.insts[i]})
	}
	b.seq = sequence(subSeed(cfg.seed, wl, rSeq), ops, len(b.ops))
	// A fixed handful of warm-ups per topology (instances interleave the
	// topologies, so the first ops cover each alike): the engine
	// keeps no state between calls, so warming every instance would only
	// repeat the timed work, while one warm-up would make setup time
	// hinge on a single instance's cost.
	for i := range b.ops[:min(len(b.ops), warm*len(topos))] {
		op := &b.ops[i]
		res, err := op.call(ctx)
		if err == nil {
			_, _, err = op.check(res)
		}
		if err != nil {
			return nil, fmt.Errorf("warm-up %s: %w", op.key, err)
		}
	}
	return b, nil
}

// opsFor sizes a workload's fixed op count: perSecond ops for every
// second of --seconds (calibrated on a 2-core machine), or tiny for tests.
func opsFor(cfg config, perSecond float64, tiny int) int {
	if cfg.tiny {
		return tiny
	}
	return max(1, int(perSecond*float64(cfg.seconds)+0.5))
}

// The library workloads schedule a distinct instance in every op: op
// cost varies by about a quarter (coefficient of variation) between random
// instances of one shape, so a run's median and tail are steady from seed
// to seed only when they span many. With each instance scheduled twice,
// the tail was the cost of the fifth-costliest of 48 instances.

func setupDense(ctx context.Context, cfg config) (bench, error) {
	tasks := 500
	if cfg.tiny {
		tasks = 40
	}
	return coldBench(ctx, cfg, wDense, []topo{{kind: "clique", procs: 16}}, tasks, opsFor(cfg, 3.2, 4), 6)
}

func setupSparse(ctx context.Context, cfg config) (bench, error) {
	tasks := 500
	if cfg.tiny {
		tasks = 40
	}
	topos := []topo{{kind: "ring", procs: 16}, {kind: "hypercube", procs: 16}, {kind: "mesh", procs: 16, rows: 4}}
	return coldBench(ctx, cfg, wSparse, topos, tasks, opsFor(cfg, 9, 6), 2)
}

// phase runs the op sequence from one caller. An op's time is the CPU
// time the process spends in the library call (the engine's workers and
// the collector included; see cpuTime), at the nominal speed of the
// reference computation run just before it (see speed.go); checking its
// result happens outside the timed phase, whose duration is the sum of
// the op times. The traced phase also records each call's wall-clock
// time, which shows what intra-call parallelism saves.
func (b *libBench) phase(ctx context.Context, tr *recorder) (*phase, error) {
	ph := &phase{}
	var refs []float64
	runtime.GC()
	for _, i := range b.seq {
		op := &b.ops[i]
		rt := ms(ref.measure())
		refs = append(refs, rt)
		before := memStats().TotalAlloc
		t0, c0 := time.Now(), cpuTime()
		res, err := op.call(ctx)
		cost, wall := scale(cpuTime()-c0, rt), time.Since(t0)
		ph.allocBytes += memStats().TotalAlloc - before
		ph.elapsed += cost
		ph.attempted++
		ph.latencies = append(ph.latencies, ms(cost))
		tr.add("sched.schedule_ms", ms(wall))
		if err != nil {
			ph.fail(op.key, err)
			continue
		}
		t1 := time.Now()
		doc, d, err := op.check(res)
		if err != nil {
			ph.fail(op.key, err)
			continue
		}
		ph.results = append(ph.results, resultRec{op: op.key, digest: d, stats: res.Stats, nsl: res.Makespan / op.ref.cpMin})
		if tr != nil {
			tr.since("sched.marshal_ms", t1)
			traceResult(tr, res, doc)
			traceStats(tr, res.Stats)
		}
	}
	ph.refMS = median(refs)
	ph.liveHeap = liveHeap()
	return ph, nil
}

// traceResult times the sched layer's checks on one result.
func traceResult(tr *recorder, res *sched.Result, doc []byte) {
	t0 := time.Now()
	_ = res.Schedule.Validate() // the correctness gate reports failures
	tr.since("sched.validate_ms", t0)
	t1 := time.Now()
	_ = verify(res.Schedule)
	tr.since("sched.verify_ms", t1)
	tr.add("sched.schedule_kb", float64(len(doc))/1024)
}

// probe times the instance-level layers on every instance: generation,
// interchange decode and the engine's pivot-selection and serialization
// stages. It also re-runs every op sequentially for the useful share of
// speculative candidate evaluations.
func (b *libBench) probe(ctx context.Context, tr *recorder) error {
	for _, s := range b.specs {
		if err := probeInstance(tr, s); err != nil {
			return err
		}
	}
	for i := range b.ops {
		op := &b.ops[i]
		if op.ref == nil {
			continue
		}
		res, err := op.call(ctx, sched.WithWorkers(1))
		if err != nil {
			return fmt.Errorf("%s at one worker: %w", op.key, err)
		}
		tr.add(specW1, res.Stats.Get("evaluations"))
		tr.add(specDefault, op.ref.stats.Get("evaluations"))
	}
	return nil
}

// probeInstance regenerates one instance and times the generator, the
// interchange decoders on its documents and the engine's first two
// stages on it.
func probeInstance(tr *recorder, s spec) error {
	t0 := time.Now()
	inst, err := s.generate()
	tr.since("gen.instance_ms", t0)
	if err != nil {
		return err
	}
	gdoc, err := inst.prob.Graph.MarshalJSON()
	if err != nil {
		return err
	}
	sdoc, err := inst.prob.System.MarshalJSON()
	if err != nil {
		return err
	}
	if err := traceDecode(tr, gdoc, sdoc); err != nil {
		return err
	}
	traceStages(tr, inst)
	return nil
}

// traceDecode times the interchange decoders on a graph document and,
// when present, a system document.
func traceDecode(tr *recorder, gdoc, sdoc []byte) error {
	t0 := time.Now()
	_, err := graph.FromJSON(gdoc)
	tr.since("graph.decode_ms", t0)
	if err != nil {
		return err
	}
	if sdoc == nil {
		return nil
	}
	t1 := time.Now()
	_, err = system.SystemFromJSON(sdoc)
	tr.since("system.decode_ms", t1)
	tr.add("system.doc_kb", float64(len(sdoc))/1024)
	return err
}

// traceStages calls BSA's exported pivot-selection and serialization
// stages on the instance, with the inputs the engine gives them.
func traceStages(tr *recorder, inst instance) {
	g, sys := inst.prob.Graph, inst.prob.System
	t0 := time.Now()
	pivot, _ := core.SelectPivot(g, sys)
	tr.since("core.select_pivot_ms", t0)
	t1 := time.Now()
	exec := sys.ExecCostsOn(pivot, g.NominalExecCosts())
	core.SerializePartitioned(g, exec, nil, rand.New(rand.NewSource(inst.seed)))
	tr.since("core.serialize_ms", t1)
}
