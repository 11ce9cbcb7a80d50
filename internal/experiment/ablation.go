package experiment

import (
	"math/rand"

	"repro/sched"
	"repro/sched/gen"
	"repro/sched/system"
)

// AblationVariant is one BSA configuration under study, expressed as
// sched options applied on top of the defaults.
type AblationVariant struct {
	Name string
	Opts []sched.Option
}

// DefaultAblationVariants covers the choices this implementation makes
// where the paper's pseudocode is silent or literal-minded: sweeping to a
// fixpoint instead of once, the bubble-up migration guard, following the
// VIP when no neighbour improves the finish time, and splicing loops out
// of incrementally grown routes. Each variant turns one of them off.
func DefaultAblationVariants() []AblationVariant {
	return []AblationVariant{
		{"default", nil},
		{"single-sweep", []sched.Option{sched.WithMaxSweeps(1)}},
		{"no-guard", []sched.Option{sched.WithMigrationGuard(false)}},
		{"no-vip-follow", []sched.Option{sched.WithVIPFollow(false)}},
		{"no-route-pruning", []sched.Option{sched.WithRoutePruning(false)}},
		// The engine ablation must land on exactly 1.00x the default's
		// schedule lengths — a visible sanity check that the incremental
		// engine changes performance, not results.
		{"full-rebuild", []sched.Option{sched.WithFullRebuild(true)}},
	}
}

// AblationRow aggregates one variant across the workload set.
type AblationRow struct {
	Variant    string
	MeanSL     float64
	MeanVsBase float64 // mean SL ratio vs the first (default) variant
	Migrations float64 // mean committed migrations
	Sweeps     float64 // mean sweeps
}

// RunAblation evaluates the variants on a shared workload set: random
// graphs at the config's sizes and granularities on the hypercube (the
// paper's heterogeneity-experiment topology). The first variant is the
// baseline for the ratio column. The config's Context cancels the run
// between instances.
func RunAblation(cfg Config, variants []AblationVariant) ([]AblationRow, error) {
	bsa, err := sched.Lookup("bsa")
	if err != nil {
		return nil, err
	}
	ctx := cfg.context()

	rows := make([]AblationRow, len(variants))
	sums := make([]float64, len(variants))
	migs := make([]float64, len(variants))
	sweeps := make([]float64, len(variants))
	count := 0

	for si, size := range cfg.Sizes {
		for gi, gran := range cfg.Grans {
			for rep := 0; rep < max1(cfg.Reps); rep++ {
				gseed := deriveSeed(cfg.Seed, 21, uint64(si), uint64(gi), uint64(rep))
				g, err := gen.Generate(gen.Spec{Kind: gen.Random, Size: size, Granularity: gran}, rand.New(rand.NewSource(gseed)))
				if err != nil {
					return nil, err
				}
				nw, err := Hypercube.Build(cfg.Procs, rand.New(rand.NewSource(1)))
				if err != nil {
					return nil, err
				}
				sys, err := system.NewRandomMinNormalized(nw, g.NumTasks(), g.NumEdges(), cfg.HetLo, cfg.HetHi, rand.New(rand.NewSource(deriveSeed(cfg.Seed, 22, uint64(si), uint64(gi), uint64(rep)))))
				if err != nil {
					return nil, err
				}
				count++
				problem := sched.Problem{Graph: g, System: sys}
				for vi, v := range variants {
					res, err := bsa.Schedule(ctx, problem, v.Opts...)
					if err != nil {
						return nil, err
					}
					sums[vi] += res.Makespan
					migs[vi] += res.Stats.Get("migrations")
					sweeps[vi] += res.Stats.Get("sweeps")
				}
			}
		}
	}
	for vi, v := range variants {
		rows[vi] = AblationRow{
			Variant:    v.Name,
			MeanSL:     sums[vi] / float64(count),
			Migrations: migs[vi] / float64(count),
			Sweeps:     sweeps[vi] / float64(count),
		}
		if sums[0] > 0 {
			rows[vi].MeanVsBase = sums[vi] / sums[0]
		}
	}
	return rows, nil
}

func max1(n int) int {
	if n < 1 {
		return 1
	}
	return n
}
