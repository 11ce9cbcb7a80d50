package core

import (
	"context"
	"fmt"
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
	// timeline, a guard rollback rebuilds once more, and every sweep
	// re-evaluates every (task, neighbour) candidate. The default
	// incremental engine re-derives only the dependency cone a migration
	// can affect, rolls back by restoring arena-saved ground truth, and
	// re-evaluates only the candidate rows a commit dirtied (see
	// candCache). Both engines produce byte-identical schedules and
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
	// tentative finish-time computations on neighbour processors; Sweeps
	// counts breadth-first pivot passes (the last one is always
	// migration-free).
	Migrations  int
	Evaluations int
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
	// CacheHits counts candidate rows served from the sweep-level cache
	// with zero re-evaluation, CachePartials rows refreshed by
	// re-evaluating only the entries a commit stamped, and CacheMisses
	// rows evaluated in full; all stay zero on the full-rebuild oracle,
	// which has no cache.
	CacheHits     int
	CachePartials int
	CacheMisses   int
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
// the VIP even when the finish time "does not improve"; a bounded tolerance
// keeps that behaviour from chasing VIPs onto heavily congested processors
// (the migration guard and the final elitism pass bound the global damage
// either way).
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
	res.Rebuilds = en.rebuilds
	res.Placements = en.placements
	res.MsgPlacements = en.msgPlaces
	if en.cache != nil {
		res.CacheHits = en.cache.hits
		res.CachePartials = en.cache.partial
		res.CacheMisses = en.cache.misses
	}
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
// row — the finish time on each neighbour — comes from the candidate
// cache, or is evaluated afresh on the full-rebuild oracle. Every decision
// therefore sees exactly the values a fresh evaluation would produce. It
// reports whether a migration was attempted and kept.
func (en *engine) step(t graph.TaskID, pivot system.ProcID, neighbors []system.Adj, opt Options, res *Result) bool {
	var bestFT, vipFT float64
	var bestY, vipY system.ProcID
	if c := en.cache; c != nil {
		en.ensureRow(t, pivot, neighbors)
		bestFT, bestY, vipFT, vipY = c.bestFT[t], c.bestY[t], c.vipFT[t], c.vipY[t]
	} else {
		if cap(en.rowBuf) < len(neighbors) {
			en.rowBuf = make([]float64, len(neighbors))
		}
		row := en.rowBuf[:len(neighbors)]
		en.evalRow(t, neighbors, row, nil)
		bestFT, bestY, vipFT, vipY = en.reduceRow(t, neighbors, row)
	}
	curFT := en.s.Tasks[t].End
	var y system.ProcID
	switch {
	case bestY >= 0 && bestFT < curFT-cmpEps:
		// Strict improvement: bubble up.
		y = bestY
	case !opt.DisableVIPFollow && vipY >= 0 && vipFT <= curFT*(1+vipSlack)+cmpEps:
		// No neighbour strictly improves the finish time, but the VIP
		// lives on one: follow it ("if the finish time does not improve,
		// a task will also migrate if its VIP is scheduled to that
		// neighbor"). Colocating with the VIP removes the message's link
		// crossing, relieving the saturated links around the pivot and
		// letting this task's successors improve later; the migration
		// guard still reverts moves that regress the overall schedule.
		y = vipY
	default:
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
