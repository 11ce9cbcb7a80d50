package service

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"repro/sched/gen"
	_ "repro/sched/register"
	"repro/sched/system"
)

// compileServer starts a Server for tests that drive its compile path
// directly, drained at test end.
func compileServer(tb testing.TB) *Server {
	tb.Helper()
	s := New(Config{Workers: 1})
	tb.Cleanup(func() { s.Drain(context.Background()) }) //nolint:errcheck
	return s
}

// hetRequest is a 40-task problem on a server-built ring whose factors
// are drawn from hetSeed.
func hetRequest(tb testing.TB, hetSeed int64) *ScheduleRequest {
	tb.Helper()
	g, err := gen.RandomLayered(40, 1, rand.New(rand.NewSource(3)))
	if err != nil {
		tb.Fatal(err)
	}
	gdoc, err := g.MarshalJSON()
	if err != nil {
		tb.Fatal(err)
	}
	return &ScheduleRequest{
		Graph: gdoc,
		Topo:  &TopoSpecWire{Kind: "ring", Procs: 8},
		Het:   &HetSpec{Lo: 1, Hi: 50, Seed: hetSeed},
	}
}

func (cc *compileCache) entries() (charged int64, graphs, systems int) {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	return cc.charged, len(cc.graphs), len(cc.systems)
}

// TestCompileCacheBudget compiles many distinct heterogeneity seeds over
// one topology: their keys are tiny, so only the charge for their
// compiled factors keeps the cache within its budget.
func TestCompileCacheBudget(t *testing.T) {
	s := compileServer(t)
	if _, _, errBody := s.compile(hetRequest(t, 1)); errBody != nil {
		t.Fatal(errBody)
	}
	one, _, _ := s.compiled.entries()
	s.compiled = newCompileCache(3 * one)
	for seed := int64(1); seed <= 30; seed++ {
		if _, _, errBody := s.compile(hetRequest(t, seed)); errBody != nil {
			t.Fatal(errBody)
		}
		charged, graphs, systems := s.compiled.entries()
		if charged > s.compiled.budget || graphs != 1 {
			t.Fatalf("after seed %d: charged %d of %d bytes, %d graphs, %d systems", seed, charged, s.compiled.budget, graphs, systems)
		}
	}
	if _, _, systems := s.compiled.entries(); systems >= 30 {
		t.Fatalf("%d systems cached: the cache never started over", systems)
	}
	// The cache still serves what it holds after starting over.
	hits := s.metrics.CompileHits.Value()
	if _, _, errBody := s.compile(hetRequest(t, 30)); errBody != nil {
		t.Fatal(errBody)
	}
	if s.metrics.CompileHits.Value() != hits+1 {
		t.Error("the last compiled problem is not cached")
	}

	// A problem larger than the whole budget is never cached.
	s.compiled = newCompileCache(one - 1)
	if _, _, errBody := s.compile(hetRequest(t, 1)); errBody != nil {
		t.Fatal(errBody)
	}
	if charged, graphs, systems := s.compiled.entries(); charged != 0 || graphs != 0 || systems != 0 {
		t.Errorf("an oversized problem was cached: %d bytes, %d graphs, %d systems", charged, graphs, systems)
	}
}

func TestCompileCacheHetSeedsCompileApart(t *testing.T) {
	s := compileServer(t)
	p1, _, errBody := s.compile(hetRequest(t, 1))
	if errBody != nil {
		t.Fatal(errBody)
	}
	p2, _, errBody := s.compile(hetRequest(t, 2))
	if errBody != nil {
		t.Fatal(errBody)
	}
	if p1.Graph != p2.Graph {
		t.Error("one graph document compiled twice")
	}
	if p1.System == p2.System || reflect.DeepEqual(p1.System.Exec, p2.System.Exec) {
		t.Fatal("different het seeds share a system")
	}
	again, _, _ := s.compile(hetRequest(t, 1))
	if again.System != p1.System {
		t.Error("het seed 1 did not hit its cached system")
	}
}

// TestCompileCacheLookupCopiesNothing pins that a hit allocates nothing
// for its keys, however large the documents.
func TestCompileCacheLookupCopiesNothing(t *testing.T) {
	s := compileServer(t)
	req := hetRequest(t, 1)
	req.Topo, req.Het = nil, nil
	nw, err := system.Ring(8)
	if err != nil {
		t.Fatal(err)
	}
	if req.Topology, err = nw.MarshalJSON(); err != nil {
		t.Fatal(err)
	}
	if _, _, errBody := s.compile(req); errBody != nil {
		t.Fatal(errBody)
	}
	g := s.compiled.graph(&req.Graph)
	if g == nil {
		t.Fatal("graph not cached")
	}
	sp := systemParams{topology: true, tasks: g.NumTasks(), edges: g.NumEdges()}
	if s.compiled.system(&req.Topology, sp) == nil {
		t.Fatal("system not cached")
	}
	allocs := testing.AllocsPerRun(100, func() {
		s.compiled.graph(&req.Graph)
		s.compiled.system(&req.Topology, sp)
	})
	if allocs != 0 {
		t.Errorf("a cache lookup allocates %v times", allocs)
	}
}

// BenchmarkCompile measures the server's compile on a perfbench
// schedd-mixed-sized problem (n=200 on hypercube-16, shipped as a full
// system document): repeat hits the cache every time, fresh starts from
// an empty cache every iteration, so every lookup misses.
func BenchmarkCompile(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	g, err := gen.RandomLayered(200, 1, rng)
	if err != nil {
		b.Fatal(err)
	}
	nw, err := system.Hypercube(4)
	if err != nil {
		b.Fatal(err)
	}
	sys, err := system.NewRandomMinNormalized(nw, g.NumTasks(), g.NumEdges(), 1, 50, rng)
	if err != nil {
		b.Fatal(err)
	}
	req := &ScheduleRequest{}
	if req.Graph, err = g.MarshalJSON(); err != nil {
		b.Fatal(err)
	}
	if req.System, err = sys.MarshalJSON(); err != nil {
		b.Fatal(err)
	}
	s := compileServer(b)
	for _, mode := range []string{"repeat", "fresh"} {
		b.Run(mode, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if mode == "fresh" {
					s.compiled = newCompileCache(compileBudget)
				}
				if _, _, errBody := s.compile(req); errBody != nil {
					b.Fatal(errBody)
				}
			}
		})
	}
}
