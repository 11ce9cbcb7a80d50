package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/schedule"
	"repro/sched/graph"
	"repro/sched/system"
)

// Options control BSA. The zero value is the paper's algorithm with seed 0.
type Options struct {
	// Seed drives the tie-breaking RNG used during critical-path selection
	// (the paper breaks CP ties randomly).
	Seed int64

	// DisableVIPFollow turns off the heuristic of migrating a task to the
	// neighbour hosting its VIP (the predecessor sending the latest
	// message) when no neighbour strictly improves its finish time.
	// Ablation knob.
	DisableVIPFollow bool

	// DisableRoutePruning keeps raw incremental routes instead of splicing
	// out loops. Ablation knob; the paper's routes are the pruned ones.
	DisableRoutePruning bool

	// DisableMigrationGuard turns off the global bubble-up check: by
	// default a committed migration whose rebuilt schedule is more than
	// GuardSlack longer than before is rolled back. The paper's local
	// finish-time evaluation sees only the migrating task: a move that
	// finishes it earlier can still delay its successors, or the tasks
	// whose messages now share its new links, by more than it gains.
	// Ablation knob.
	DisableMigrationGuard bool

	// GuardSlack is the relative schedule-length regression tolerated by
	// the migration guard. A small positive slack lets chain heads migrate
	// first (briefly lengthening the schedule until their successors
	// follow via the VIP rule) while still rejecting catastrophic moves;
	// the elitism pass restores the best state seen at the end, so slack
	// never worsens the final result. Zero means DefaultGuardSlack; use a
	// negative value for a strict no-regression guard.
	GuardSlack float64

	// MaxSweeps bounds how many breadth-first pivot sweeps run. The
	// paper's pseudocode describes a single sweep, but one sweep drains the
	// first pivot only once — it equilibrates with its direct neighbours
	// and stays overloaded, so tasks never reach processors more than a
	// few hops from the pivot, which contradicts the paper's measured
	// results. We therefore iterate the sweep until no task migrates,
	// bounded by MaxSweeps. Zero means "until fixpoint" (bounded by 4m as
	// a safety net); 1 reproduces the literal single-sweep pseudocode
	// (ablation knob).
	MaxSweeps int

	// UseFullRebuild selects the original full-rebuild engine as a
	// correctness oracle: every committed migration reconstructs the whole
	// timeline, a guard rollback rebuilds once more, and every candidate
	// entry is evaluated in full. The default incremental engine
	// re-derives only the dependency cone a migration can affect, rolls
	// back by restoring arena-saved ground truth, and settles candidate
	// entries that cannot change a decision by a finish-time bound (see
	// settleLine). Both engines produce byte-identical schedules and
	// migration traces for identical seeds; the oracle exists for
	// equivalence tests and benchmarks.
	UseFullRebuild bool

	// RecordTrace makes Result.MigrationTrace record every commit attempt
	// in decision order (test and debugging aid; off by default because
	// the trace grows with the migration count).
	RecordTrace bool

	// backend forces the incremental engine's schedule-state backend
	// ("reference" or "soa"); empty picks one by link density (see
	// defaultBackend). Both produce byte-identical schedules, so the
	// choice is the engine's alone; the conformance tests set this to run
	// each backend on every topology.
	backend string
}

// engineConfig resolves the engine configuration opt selects.
func (opt Options) engineConfig() engineConfig {
	slack := opt.GuardSlack
	switch {
	case slack == 0:
		slack = DefaultGuardSlack
	case slack < 0:
		slack = 0
	}
	return engineConfig{
		pruneRoutes: !opt.DisableRoutePruning,
		guardSlack:  slack,
		backend:     opt.backend,
		fullRebuild: opt.UseFullRebuild,
	}
}

// Result is the outcome of a BSA run.
type Result struct {
	Schedule *schedule.Schedule

	// InitialPivot is the processor that gave the shortest CP length.
	InitialPivot system.ProcID
	// PivotCPLength is that shortest CP length.
	PivotCPLength float64
	// Serial is the serialization order injected into the pivot, and
	// Partition the CP/IB/OB split of the critical path it was built on
	// (the seeded RNG breaks CP ties, so this is the run's own partition,
	// not a recomputation).
	Serial    []graph.TaskID
	Partition Partition

	// Migrations counts committed task migrations; Evaluations counts
	// candidate entries settled, by a full evaluation or by the bound,
	// and BoundSkips those the bound alone settled (always zero on the
	// full-rebuild oracle, which evaluates every entry in full); Sweeps
	// counts breadth-first pivot passes (the last one is always
	// migration-free).
	Migrations  int
	Evaluations int
	BoundSkips  int
	Sweeps      int
	// Rebuilds counts timeline (re)derivations and Placements the task
	// placements they performed; the incremental engine's cone updates
	// make Placements grow far slower than Rebuilds × tasks.
	Rebuilds   int
	Placements int
	// MsgPlacements counts message placements analogously.
	MsgPlacements int
	// Reverted counts migrations rolled back by the bubble-up guard.
	Reverted int
	// RestoredBest reports whether the final elitism pass had to rewind to
	// an earlier, shorter state.
	RestoredBest bool
	// MigrationTrace is the commit-attempt sequence, recorded only when
	// Options.RecordTrace is set.
	MigrationTrace []MigrationStep
	// DirtyTasks is the size of the warm start's reconvergence frontier
	// after adoption diffing; zero for cold runs (see RescheduleContext).
	DirtyTasks int
}

// MigrationStep is one commit attempt of the migration sweep: task moved
// (or tentatively moved) From -> To, and whether the guard kept it.
type MigrationStep struct {
	Task graph.TaskID
	From system.ProcID
	To   system.ProcID
	Kept bool
}

// Schedule runs the BSA algorithm on g over sys and returns a complete,
// validated-by-construction schedule. It errors on malformed inputs; with
// valid inputs it always produces a feasible schedule (there is no failure
// mode — in the worst case no task migrates off the initial pivot).
func Schedule(g *graph.Graph, sys *system.System, opt Options) (*Result, error) {
	return ScheduleContext(context.Background(), g, sys, opt)
}

// ScheduleContext is Schedule with cancellation: ctx is polled before
// every pivot of every migration sweep, so a canceled or expired context
// aborts a long run between two migration decisions and returns ctx.Err()
// (wrapped; test with errors.Is).
func ScheduleContext(ctx context.Context, g *graph.Graph, sys *system.System, opt Options) (*Result, error) {
	if err := sys.Validate(g.NumTasks(), g.NumEdges()); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	rng := rand.New(rand.NewSource(opt.Seed))

	res := &Result{}
	if g.NumTasks() == 0 {
		res.Schedule = schedule.New(g, sys)
		return res, nil
	}

	// Stage 1: pivot selection.
	pivot0, cpLen := SelectPivot(g, sys)
	res.InitialPivot, res.PivotCPLength = pivot0, cpLen

	// Stage 2: serialization onto the pivot, using actual execution costs
	// there and nominal communication costs.
	exec := sys.ExecCostsOn(pivot0, g.NominalExecCosts())
	serial, part := SerializePartitioned(g, exec, nil, rng)
	res.Serial = serial
	res.Partition = part

	en := newEngine(g, sys, serial, pivot0, opt.engineConfig())
	en.setContext(ctx)

	// Stage 3: breadth-first bubble migration, iterated to a fixpoint.
	if err := converge(ctx, en, pivot0, nil, opt, res); err != nil {
		return nil, err
	}
	return res, nil
}

// DefaultGuardSlack is the default relative regression tolerance of the
// migration guard (see Options.GuardSlack).
const DefaultGuardSlack = 0.05

// vipSlack is the relative finish-time regression a task accepts when
// following its VIP to a neighbour. The paper's prose describes following
// the VIP even when the finish time "does not improve". At 0 there is no
// tolerance: a task follows its VIP only when no neighbour improves its
// finish time and the VIP's neighbour ties it within cmpEps. In the
// measurements of ROADMAP.md item 8, this tie-only rule fired 0 times in
// 360 generated runs; in the ablation, a tolerance of 0.1 cost +1.0% mean
// schedule length and the unbounded literal reading +14.5%.
const vipSlack = 0.0

// converge runs breadth-first migration sweeps from root until no task
// migrates, two consecutive sweeps fail to improve the best schedule seen
// (VIP-following can shuffle tasks indefinitely) or opt.MaxSweeps is
// reached. It then ends on the best state visited and fills res from the
// engine. A non-nil ds restricts the sweeps to that dirty frontier and
// stops them once it drains.
func converge(ctx context.Context, en *engine, root system.ProcID, ds *dirtySet, opt Options, res *Result) error {
	maxSweeps := opt.MaxSweeps
	if maxSweeps <= 0 {
		maxSweeps = 4 * en.sys.Net.NumProcs()
	}
	bfs := en.sys.Net.BFSOrder(root)
	stale := 0
	for sweep := 0; sweep < maxSweeps && (ds == nil || ds.n > 0); sweep++ {
		migrationsBefore := res.Migrations
		bestBefore := en.bestLen
		res.Sweeps++
		if err := sweepOnce(ctx, en, bfs, ds, opt, res); err != nil {
			return fmt.Errorf("core: after %d sweeps, %d migrations: %w",
				res.Sweeps, res.Migrations, err)
		}
		if res.Migrations == migrationsBefore {
			break // fixpoint: nothing moved
		}
		if en.bestLen >= bestBefore-cmpEps {
			stale++
			if stale >= 2 {
				break
			}
		} else {
			stale = 0
		}
	}

	// Elitism: migrations may have regressed within the guard slack; end on
	// the best state visited.
	res.RestoredBest = en.restoreBest()

	res.Evaluations = en.evaluations
	res.BoundSkips = en.boundSkips
	res.Rebuilds = en.rebuilds
	res.Placements = en.placements
	res.MsgPlacements = en.msgPlaces
	res.Schedule = en.finalSchedule()
	return nil
}

// sweepOnce performs one breadth-first pivot pass: every processor in bfs
// order becomes the pivot, and each task residing on it is considered for
// migration to a neighbour (see step). A non-nil ds restricts the pass to
// the dirty frontier: only dirty tasks are considered, each leaves the
// frontier once examined, and every kept commit re-adds its dependency
// cone. A frontier covering all tasks therefore decides exactly like the
// unrestricted pass. ctx is polled once per pivot; on cancellation the
// sweep stops and ctx.Err() is returned.
func sweepOnce(ctx context.Context, en *engine, bfs []system.ProcID, ds *dirtySet, opt Options, res *Result) error {
	for _, pivot := range bfs {
		if err := ctx.Err(); err != nil {
			return err
		}
		neighbors := en.sys.Net.Neighbors(pivot)
		if len(neighbors) == 0 {
			continue
		}
		for _, t := range en.tasksOn(pivot) {
			if ds != nil {
				if !ds.flag[t] {
					continue
				}
				ds.clear(t)
			}
			if en.step(t, pivot, neighbors, opt, res) && ds != nil {
				ds.expand(en)
			}
			if en.cancelErr != nil {
				// The bounded-interval poll inside the cone update saw
				// a canceled context; the slot state is torn, so abort
				// without another decision.
				return en.cancelErr
			}
		}
	}
	return nil
}

// step takes the migration decision for task t on pivot. Its candidate
// row — the finish time on each neighbour — is evaluated against the
// current timelines. The incremental engine settles the entries that
// cannot change the decision by their bound (see settleLine); the
// full-rebuild oracle evaluates every entry in full. It reports whether a
// migration was attempted and kept.
func (en *engine) step(t graph.TaskID, pivot system.ProcID, neighbors []system.Adj, opt Options, res *Result) bool {
	if cap(en.rowBuf) < len(neighbors) {
		en.rowBuf = make([]float64, len(neighbors))
	}
	row := en.rowBuf[:len(neighbors)]
	curFT := en.s.Tasks[t].End
	settle := math.Inf(1)
	if !en.cfg.fullRebuild {
		settle = settleLine(curFT, len(neighbors))
	}
	en.evalRow(t, neighbors, row, settle)
	bestFT, bestY, vipFT, vipY := en.reduceRow(t, neighbors, row)
	y := migrationTarget(curFT, bestFT, bestY, vipFT, vipY, !opt.DisableVIPFollow)
	if y < 0 {
		return false
	}
	kept := en.commitMigration(t, y, !opt.DisableMigrationGuard)
	if opt.RecordTrace {
		res.MigrationTrace = append(res.MigrationTrace, MigrationStep{Task: t, From: pivot, To: y, Kept: kept})
	}
	if kept {
		res.Migrations++
	} else {
		res.Reverted++
	}
	return kept
}

// migrationTarget is step's decision from a reduced candidate row: the
// neighbour to migrate to for a task now finishing at curFT, or -1 to
// stay.
func migrationTarget(curFT, bestFT float64, bestY system.ProcID, vipFT float64, vipY system.ProcID, followVIP bool) system.ProcID {
	switch {
	case bestY >= 0 && bestFT < curFT-cmpEps:
		// Strict improvement: bubble up.
		return bestY
	case followVIP && vipY >= 0 && vipFT <= curFT*(1+vipSlack)+cmpEps:
		// No neighbour strictly improves the finish time, but the VIP
		// lives on one: follow it ("if the finish time does not improve,
		// a task will also migrate if its VIP is scheduled to that
		// neighbor"). Colocating with the VIP removes the message's link
		// crossing, relieving the saturated links around the pivot and
		// letting this task's successors improve later; the migration
		// guard still reverts moves that regress the overall schedule.
		return vipY
	}
	return -1
}

// reduceRow folds one row of candidate finish times into the migration
// decision's aggregates (see rowScan), with the neighbour hosting t's VIP.
func (en *engine) reduceRow(t graph.TaskID, neighbors []system.Adj, row []float64) (bestFT float64, bestY system.ProcID, vipFT float64, vipY system.ProcID) {
	vipProc := system.ProcID(-1)
	if _, vip := en.s.DRT(t); vip >= 0 {
		vipProc = en.assign[vip]
	}
	return rowScan(neighbors, row, vipProc)
}

// rowScan reduces a candidate row to the strictly-best neighbour (first
// wins ties within cmpEps, as in BFS adjacency order) and the entry of
// neighbour vipProc, if any.
func rowScan(neighbors []system.Adj, row []float64, vipProc system.ProcID) (bestFT float64, bestY system.ProcID, vipFT float64, vipY system.ProcID) {
	bestFT = math.Inf(1)
	bestY, vipY = -1, -1
	for ni, a := range neighbors {
		ft := row[ni]
		if ft < bestFT-cmpEps {
			bestFT, bestY = ft, a.Proc
		}
		if a.Proc == vipProc {
			vipFT, vipY = ft, a.Proc
		}
	}
	return bestFT, bestY, vipFT, vipY
}

// settleLine is the finish time from which a candidate entry of a task
// now finishing at curFT, in a row of n entries, can no longer change
// migrationTarget's decision; evalRow settles an entry whose lower bound
// reaches it as +Inf without a fit. The line lies above the VIP rule's
// acceptance line, so a settled entry is never the VIP target. It also
// lies n+1 cmpEps steps above the strict-improvement line. rowScan keeps
// the first of several entries within cmpEps of each other, so settling
// an entry can change which entry the scan keeps next, and that the one
// after; each link of such a chain is at most cmpEps lower than the last
// and a row has fewer than n links, so the chain ends above the
// strict-improvement line and the decision stands. A line at curFT is not
// enough (see TestSettleLineKeepsDecision). The relative term covers
// float64 rounding where cmpEps is below an ulp.
func settleLine(curFT float64, n int) float64 {
	return curFT*(1+vipSlack) + float64(n+1)*(cmpEps+math.Abs(curFT)*0x1p-50)
}
