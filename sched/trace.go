package sched

import (
	"repro/sched/graph"
	"repro/sched/system"
)

// BSATrace is Result.Trace for the "bsa" and "bsa-full" algorithms.
type BSATrace struct {
	// InitialPivot is the processor with the shortest critical-path
	// length, where the serialization was injected.
	InitialPivot system.ProcID
	// PivotName is that processor's display name.
	PivotName string
	// PivotCPLength is the critical-path length on the initial pivot.
	PivotCPLength float64
	// Serial is the serialization order injected into the pivot.
	Serial []graph.TaskID
	// CP, IB and OB are the serialization's three-way task partition —
	// critical path, in-branch and out-branch — with respect to the
	// initial pivot's actual execution costs.
	CP, IB, OB []graph.TaskID

	// Migrations counts committed task migrations, Reverted the ones
	// rolled back by the bubble-up guard, Sweeps the breadth-first pivot
	// passes and Evaluations the candidate entries settled, by a full
	// evaluation or by the bound.
	Migrations  int
	Reverted    int
	Sweeps      int
	Evaluations int
	// Rebuilds, Placements and MsgPlacements count timeline derivations
	// and the task/message placements they performed.
	Rebuilds      int
	Placements    int
	MsgPlacements int
	// BoundSkips counts the candidate entries among Evaluations that a
	// finish-time lower bound settled without a full evaluation, because
	// they could not change the migration decision. Zero on the
	// full-rebuild engine, which evaluates every entry in full.
	BoundSkips int
	// RestoredBest reports whether the final elitism pass rewound to an
	// earlier, shorter state.
	RestoredBest bool
}

// RescheduleTrace is Result.Trace for results produced by Reschedule:
// the warm-started BSA reconvergence.
type RescheduleTrace struct {
	// DeltaOps is the number of operations in the applied delta and
	// DirtyTasks the size of the reconvergence frontier after the adopted
	// schedule was diffed against the previous one.
	DeltaOps   int
	DirtyTasks int
	// Serial is the adopted serialization: the previous schedule's
	// start-time order with appended tasks at the end.
	Serial []graph.TaskID

	// The remaining counters mirror BSATrace, restricted to the warm
	// sweeps actually run. Evaluations counts candidate entries settled,
	// by a full evaluation or by the bound.
	Migrations    int
	Reverted      int
	Sweeps        int
	Evaluations   int
	Rebuilds      int
	Placements    int
	MsgPlacements int
	BoundSkips    int
	RestoredBest  bool
}

// DLSTrace is Result.Trace for the "dls" algorithm.
type DLSTrace struct {
	// Steps is the number of scheduling steps (== tasks); Evaluations
	// the (task, processor) pairs evaluated.
	Steps       int
	Evaluations int
}

// HEFTTrace is Result.Trace for the "heft" algorithm.
type HEFTTrace struct {
	// Ranks holds the upward rank of every task.
	Ranks []float64
}

// CPOPTrace is Result.Trace for the "cpop" algorithm.
type CPOPTrace struct {
	// CPProc is the processor the critical path was pinned to, CPProcName
	// its display name.
	CPProc     system.ProcID
	CPProcName string
	// OnCP flags the tasks treated as critical-path tasks.
	OnCP []bool
}
