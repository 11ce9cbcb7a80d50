package experiment

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/sched"
	"repro/sched/gen"
	"repro/sched/system"
)

// AtlasFamilies lists every topology family the atlas covers: the whole
// gen.TopoKind enum, in enum order, so a newly registered family shows
// up in the README table the next time `make atlas` runs.
func AtlasFamilies() []gen.TopoKind {
	var out []gen.TopoKind
	for _, name := range gen.TopoKindNames() {
		k, err := gen.TopoKindByName(name)
		if err != nil {
			panic(err) // unreachable: names come from the enum itself
		}
		out = append(out, k)
	}
	return out
}

// AtlasCell is one scheduled (family, algorithm, heterogeneity) point.
// Simulated is the event-driven replay's makespan; the run fails unless
// Simulated <= Makespan, so every number in the table is replay-validated.
type AtlasCell struct {
	Makespan  float64
	Simulated float64
}

// AtlasRow is one topology family's line in the atlas: the built network's
// dimensions plus one pair of cells (het off, het on) per algorithm, in
// Atlas.Algos order.
type AtlasRow struct {
	Family gen.TopoKind
	Procs  int
	Links  int
	Cells  [][2]AtlasCell
}

// Atlas is the one-command results table: one workload instance scheduled
// by every algorithm on every topology family, with heterogeneity off and
// on, every schedule validated and replay-checked. All randomness derives
// from Seed, so the rendered table is byte-for-byte reproducible.
type Atlas struct {
	Procs int
	Size  int
	Gran  float64
	Seed  int64
	HetLo float64
	HetHi float64
	Algos []Algorithm
	Rows  []AtlasRow
}

// RunAtlas schedules the atlas described by cfg: a random task graph
// (first entry of cfg.Sizes, granularity 1.0) on every topology family at
// cfg.Procs processors, with every cfg.Algorithms entry, heterogeneity
// off (uniform system) and on (min-normalized factors in
// [cfg.HetLo, cfg.HetHi]). Every schedule is validated and replayed by
// the event-driven simulator; a simulated makespan exceeding the static
// one fails the run. Cells are scheduled sequentially in table order —
// the atlas is small by design — so the result is deterministic in cfg.
func RunAtlas(cfg Config) (*Atlas, error) {
	ctx := cfg.context()
	size := 50
	if len(cfg.Sizes) > 0 {
		size = cfg.Sizes[0]
	}
	a := &Atlas{
		Procs: cfg.Procs,
		Size:  size,
		Gran:  1.0,
		Seed:  cfg.Seed,
		HetLo: cfg.HetLo,
		HetHi: cfg.HetHi,
		Algos: append([]Algorithm(nil), cfg.Algorithms...),
	}
	g, err := gen.Generate(gen.Spec{Kind: gen.Random, Size: size, Granularity: a.Gran},
		rand.New(rand.NewSource(deriveSeed(cfg.Seed, 11))))
	if err != nil {
		return nil, fmt.Errorf("experiment: atlas graph: %w", err)
	}
	for fi, family := range AtlasFamilies() {
		nw, err := gen.Topology(gen.TopoSpec{Kind: family, Procs: cfg.Procs},
			rand.New(rand.NewSource(deriveSeed(cfg.Seed, 12, uint64(fi)))))
		if err != nil {
			return nil, fmt.Errorf("experiment: atlas %s topology: %w", family, err)
		}
		row := AtlasRow{Family: family, Procs: nw.NumProcs(), Links: nw.NumLinks()}
		hetSys, err := system.NewRandomMinNormalized(nw, g.NumTasks(), g.NumEdges(),
			cfg.HetLo, cfg.HetHi, rand.New(rand.NewSource(deriveSeed(cfg.Seed, 13, uint64(fi)))))
		if err != nil {
			return nil, fmt.Errorf("experiment: atlas %s factors: %w", family, err)
		}
		systems := [2]*system.System{system.NewUniform(nw, g.NumTasks(), g.NumEdges()), hetSys}
		for _, algo := range a.Algos {
			s, err := sched.Lookup(string(algo))
			if err != nil {
				return nil, fmt.Errorf("experiment: atlas: %w", err)
			}
			var pair [2]AtlasCell
			for hi, sys := range systems {
				p, err := sched.NewProblem(g, sys)
				if err != nil {
					return nil, fmt.Errorf("experiment: atlas %s: %w", family, err)
				}
				res, err := s.Schedule(ctx, p, sched.WithSeed(deriveSeed(cfg.Seed, 14)))
				if err != nil {
					return nil, fmt.Errorf("experiment: atlas %s on %s (het=%v): %w", algo, family, hi == 1, err)
				}
				if err := res.Schedule.Validate(); err != nil {
					return nil, fmt.Errorf("experiment: atlas %s on %s (het=%v): infeasible: %w", algo, family, hi == 1, err)
				}
				replay, err := res.Schedule.Replay()
				if err != nil {
					return nil, fmt.Errorf("experiment: atlas %s on %s (het=%v): replay: %w", algo, family, hi == 1, err)
				}
				if replay.Length > res.Makespan {
					return nil, fmt.Errorf("experiment: atlas %s on %s (het=%v): simulated length %g exceeds static %g",
						algo, family, hi == 1, replay.Length, res.Makespan)
				}
				pair[hi] = AtlasCell{Makespan: res.Makespan, Simulated: replay.Length}
			}
			row.Cells = append(row.Cells, pair)
		}
		a.Rows = append(a.Rows, row)
	}
	return a, nil
}

// Markdown renders the atlas as the README's results table: one row per
// topology family, one makespan column per (algorithm, heterogeneity)
// pair, plus a parameter caption. The output depends only on the atlas
// contents, so two runs from the same Config are byte-identical.
func (a *Atlas) Markdown() string {
	var b strings.Builder
	b.WriteString("| topology | links |")
	for _, algo := range a.Algos {
		fmt.Fprintf(&b, " %s | %s het |", algo, algo)
	}
	b.WriteString("\n|:---|---:|")
	for range a.Algos {
		b.WriteString("---:|---:|")
	}
	b.WriteByte('\n')
	for _, r := range a.Rows {
		fmt.Fprintf(&b, "| %s | %d |", r.Family, r.Links)
		for _, pair := range r.Cells {
			fmt.Fprintf(&b, " %.1f | %.1f |", pair[0].Makespan, pair[1].Makespan)
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "\nMakespans of one %d-task random graph (granularity %g, master seed %d) "+
		"on %d-processor networks; \"het\" draws min-normalized execution factors from [%g, %g]. "+
		"Every schedule is feasibility-validated and replayed by the event-driven simulator "+
		"(simulated length never exceeds the static makespan). Regenerate with `make atlas`.\n",
		a.Size, a.Gran, a.Seed, a.Procs, a.HetLo, a.HetHi)
	return b.String()
}

// Atlas README markers. SpliceAtlas replaces whatever sits between them.
const (
	atlasBegin = "<!-- atlas:begin -->"
	atlasEnd   = "<!-- atlas:end -->"
)

// SpliceAtlas returns readme with the region between the atlas markers
// replaced by table (a Markdown rendering). The markers themselves are
// kept, so the splice is idempotent: splicing the same table twice yields
// identical bytes — which is exactly what the CI determinism smoke
// asserts about `make atlas`.
func SpliceAtlas(readme []byte, table string) ([]byte, error) {
	s := string(readme)
	begin := strings.Index(s, atlasBegin)
	end := strings.Index(s, atlasEnd)
	if begin < 0 || end < 0 {
		return nil, fmt.Errorf("experiment: README is missing the %s / %s markers", atlasBegin, atlasEnd)
	}
	if end < begin {
		return nil, fmt.Errorf("experiment: README atlas markers are out of order")
	}
	var b strings.Builder
	b.WriteString(s[:begin+len(atlasBegin)])
	b.WriteString("\n")
	b.WriteString(table)
	b.WriteString(s[end:])
	return []byte(b.String()), nil
}
