// Package sched is the public front door of this repository: one
// Scheduler interface, one Result shape and one algorithm registry for
// every implemented scheduling algorithm (BSA, DLS, HEFT, CPOP and the
// BSA full-rebuild oracle).
//
// The whole problem model is public and lives in the sched subpackages:
//
//   - repro/sched/graph — immutable task graphs: fluent Builder, typed
//     validation errors, JSON + DOT load/save, levels and critical path.
//   - repro/sched/system — target systems: processor Network with
//     topology constructors (ring, hypercube, fully connected, random,
//     ...), heterogeneity factor matrices, JSON + DOT load/save.
//   - repro/sched/gen — seeded, deterministic generators for the paper's
//     workload suites, its topologies and its Figure 1 worked example.
//
// Packages under internal/ are implementation detail and not a supported
// surface; nothing in the exported API of sched or its subpackages
// references an internal type (enforced by an API-seal test), and the
// standalone consumer module under tests/extmodule proves the public
// surface is sufficient to build problems and read schedules.
//
// # Usage
//
// Importing repro/sched/register (blank import) registers every built-in
// algorithm; each algorithm self-registers from its own adapter file, so
// there are no import cycles and no side effects unless asked for:
//
//	import (
//		"repro/sched"
//		"repro/sched/graph"
//		"repro/sched/system"
//		_ "repro/sched/register"
//	)
//
//	s, err := sched.Lookup("bsa")
//	if err != nil { ... }
//	res, err := s.Schedule(ctx, sched.Problem{Graph: g, System: sys},
//		sched.WithSeed(42))
//	if err != nil { ... }
//	fmt.Println(res.Makespan, res.Summary)
//
// A Problem bundles the task graph with the heterogeneous target system
// (which carries the network topology, and with it message routing).
// Every run returns a *Result holding a read-only Schedule view — task
// slots, per-hop message reservations, Gantt renderings, JSON export and
// feasibility checks (Validate, Replay, Verify) — plus the makespan,
// wall-clock timing, uniform per-algorithm counters (Stats) and a typed
// algorithm-specific trace reached through Result.BSA, Result.DLS,
// Result.HEFT or Result.CPOP.
//
// Runs are context-aware: cancellation and deadlines are observed inside
// the algorithms' migration/placement loops, so long sweeps abort cleanly
// with ctx.Err().
//
// # Quasi-dynamic rescheduling
//
// A Delta is a typed, validated edit script against a Problem: remove
// processors or links, scale execution/communication factors, append
// tasks and edges. Deltas are built with DeltaBuilder (or loaded from
// the JSON interchange form via DeltaFromJSON) and applied with
// Delta.Apply, which rejects edits that name unknown entities,
// disconnect the network or produce invalid costs — each failure is a
// typed error (UnknownProcError, DisconnectedError, DeltaValueError,
// ...). Reschedule(ctx, prev, delta, opts...) then warm-starts BSA from
// the previous Result instead of scheduling the changed problem from
// scratch: surviving placements and routes are adopted, only the tasks
// disturbed by the delta (and whatever their migration ripples touch)
// are revisited, and the reconverged Result carries a RescheduleTrace
// plus Stats counters (dirty_tasks, evaluations, delta_ops) that
// quantify how much work the warm start saved over a cold run.
//
// Functional options (WithSeed, WithFullRebuild, WithInsertion,
// WithMaxSweeps, ...) replace the per-package option structs of earlier
// revisions; options an algorithm does not understand are ignored, which
// lets one option list drive heterogeneous algorithm sets in sweeps.
//
// The runnable Example functions in example_test.go are compiled and
// executed by go test, so the documented surface cannot rot.
package sched
