// Package repro reproduces Kwok & Ahmad's BSA algorithm ("Link
// Contention-Constrained Scheduling and Mapping of Tasks and Messages to a
// Network of Heterogeneous Processors", ICPP 1999): a static scheduler that
// maps precedence-constrained task graphs onto arbitrary networks of
// heterogeneous processors, treating communication links as first-class
// contended resources and routing messages incrementally without a routing
// table.
//
// The supported API surface is the public repro/sched package tree: one
// Scheduler interface, a uniform Result with a read-only Schedule view
// and typed trace accessors, functional options and a self-registering
// algorithm registry (blank-import repro/sched/register to install the
// built-in algorithms bsa, bsa-full, dls, heft and cpop). The problem
// model is public alongside it: task graphs with builders and JSON/DOT
// interchange in repro/sched/graph, heterogeneous target systems and
// topologies in repro/sched/system, and the paper's seeded workload and
// topology generators in repro/sched/gen.
//
// The engines live under internal/ and are not a supported surface: the
// BSA algorithm in internal/core, the DLS baseline in internal/dls,
// contention-aware HEFT and CPOP extensions in internal/heft and
// internal/cpop, and the mutable schedule timelines, experiment harness
// and replay simulator in their own packages. An API-seal test keeps
// internal types out of every public exported signature, and the
// standalone module under tests/extmodule proves the public surface
// suffices for external callers. Executables are under cmd/ and runnable
// examples under examples/. The benchmarks in bench_test.go regenerate
// the paper's tables and figures at reduced scale; cmd/experiments
// regenerates them in full.
//
// BSA runs on an incremental engine by default, built as a stack of
// layers that all preserve byte-identical schedules: committed migrations
// re-derive only their dependency cone (event-driven cone updates); every
// migration decision evaluates its task's candidate row against the
// current timelines, and a finish-time lower bound settles without a fit
// each entry that cannot change the decision; the slot state lives in one
// of two backends, picked from the network's link density; and the hot
// paths are arena-backed
// (offset/length route views, reused evaluation scratch, in-place route
// normalization, single-search timeline reservations). Candidate
// evaluation is sequential, because each migration decision reads the
// timelines the previous commit left.
// The original full-rebuild engine remains available as a correctness
// oracle via sched.WithFullRebuild(true) or the "bsa-full" registry name
// — both engines, on either backend, produce byte-identical schedules
// for identical seeds, enforced by property tests and the FuzzBSA
// differential fuzz target. See README.md's
// "Performance" section for measured numbers; BENCH_core.json at the
// repo root is the committed benchmark trajectory point that CI's
// make bench-gate compares against.
package repro
