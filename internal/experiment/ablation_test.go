package experiment

import (
	"testing"

	"repro/sched"
)

func TestRunAblation(t *testing.T) {
	cfg := tinyConfig()
	cfg.Sizes = []int{40}
	cfg.Grans = []float64{1.0}
	rows, err := RunAblation(cfg, DefaultAblationVariants())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("rows=%d", len(rows))
	}
	// The engine ablation must match the default engine exactly.
	for _, r := range rows {
		if r.Variant == "full-rebuild" && r.MeanVsBase != 1 {
			t.Errorf("%s engine ablation diverges from default: %+v", r.Variant, r)
		}
	}
	if rows[0].Variant != "default" || rows[0].MeanVsBase != 1 {
		t.Errorf("baseline row wrong: %+v", rows[0])
	}
	for _, r := range rows {
		if r.MeanSL <= 0 {
			t.Errorf("%s: non-positive SL", r.Variant)
		}
		if r.MeanVsBase <= 0 {
			t.Errorf("%s: bad ratio %v", r.Variant, r.MeanVsBase)
		}
	}
	// The single-sweep variant must do at most as many sweeps as default.
	var def, single AblationRow
	for _, r := range rows {
		switch r.Variant {
		case "default":
			def = r
		case "single-sweep":
			single = r
		}
	}
	if single.Sweeps > 1 {
		t.Errorf("single-sweep ran %v sweeps", single.Sweeps)
	}
	if def.Sweeps < single.Sweeps {
		t.Errorf("default sweeps %v < single %v", def.Sweeps, single.Sweeps)
	}
	// Iterated sweeps must not be worse than the single literal pass.
	if def.MeanSL > single.MeanSL*1.01 {
		t.Errorf("default SL %v worse than single-sweep %v", def.MeanSL, single.MeanSL)
	}
}

func TestRunAblationCustomVariant(t *testing.T) {
	cfg := tinyConfig()
	cfg.Sizes = []int{30}
	cfg.Grans = []float64{1.0}
	rows, err := RunAblation(cfg, []AblationVariant{
		{"base", nil},
		{"strict-guard", []sched.Option{sched.WithGuardSlack(-1)}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[1].Variant != "strict-guard" {
		t.Fatalf("rows=%+v", rows)
	}
}
