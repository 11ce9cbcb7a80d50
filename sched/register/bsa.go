package register

import (
	"context"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/sched"
)

func init() {
	sched.Register(sched.Descriptor{
		Name:        "bsa",
		Description: "Bubble Scheduling and Allocation (Kwok & Ahmad): pivot selection, CP-centric serialization, breadth-first bubble migration on the incremental engine",
		New:         func() sched.Scheduler { return bsaScheduler{name: "bsa"} },
	})
	sched.Register(sched.Descriptor{
		Name:        "bsa-full",
		Aliases:     []string{"bsa-oracle"},
		Description: "BSA on the legacy full-rebuild engine — the incremental engine's correctness oracle (byte-identical schedules)",
		New:         func() sched.Scheduler { return bsaScheduler{name: "bsa-full", fullRebuild: true} },
	})
}

// bsaScheduler adapts internal/core to the sched API. The zero value is
// the paper's BSA; fullRebuild selects the oracle engine.
type bsaScheduler struct {
	name        string
	fullRebuild bool
}

func (b bsaScheduler) Name() string { return b.name }

func (b bsaScheduler) Schedule(ctx context.Context, p sched.Problem, opts ...sched.Option) (*sched.Result, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	cfg := sched.NewConfig(opts...)
	start := time.Now()
	res, err := core.ScheduleContext(ctx, p.Graph, p.System, core.Options{
		Seed:                  cfg.Seed,
		UseFullRebuild:        b.fullRebuild || cfg.FullRebuild,
		MaxSweeps:             cfg.MaxSweeps,
		GuardSlack:            cfg.GuardSlack,
		DisableVIPFollow:      !cfg.VIPFollow,
		DisableRoutePruning:   !cfg.RoutePruning,
		DisableMigrationGuard: !cfg.MigrationGuard,
	})
	if err != nil {
		return nil, err
	}
	pivotName := p.System.Net.Proc(res.InitialPivot).Name
	out := &sched.Result{
		Algorithm: b.name,
		Schedule:  view(res.Schedule),
		Makespan:  res.Schedule.Length(),
		Elapsed:   time.Since(start),
		Summary: fmt.Sprintf("%s: pivot=%s (CP length %.2f), %d migrations in %d sweeps (%d reverted)",
			b.name, pivotName, res.PivotCPLength, res.Migrations, res.Sweeps, res.Reverted),
		Stats: sched.Stats{
			"migrations":     float64(res.Migrations),
			"reverted":       float64(res.Reverted),
			"sweeps":         float64(res.Sweeps),
			"evaluations":    float64(res.Evaluations),
			"rebuilds":       float64(res.Rebuilds),
			"placements":     float64(res.Placements),
			"msg_placements": float64(res.MsgPlacements),
			"bound_skips":    float64(res.BoundSkips),
		},
	}
	out.SetTrace(&sched.BSATrace{
		InitialPivot:  res.InitialPivot,
		PivotName:     pivotName,
		PivotCPLength: res.PivotCPLength,
		Serial:        res.Serial,
		CP:            res.Partition.CP,
		IB:            res.Partition.IB,
		OB:            res.Partition.OB,
		Migrations:    res.Migrations,
		Reverted:      res.Reverted,
		Sweeps:        res.Sweeps,
		Evaluations:   res.Evaluations,
		Rebuilds:      res.Rebuilds,
		Placements:    res.Placements,
		MsgPlacements: res.MsgPlacements,
		BoundSkips:    res.BoundSkips,
		RestoredBest:  res.RestoredBest,
	})
	return out, nil
}
