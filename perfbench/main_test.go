package main

import (
	"context"
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"strconv"
	"testing"
	"time"
)

func tinyRun(t *testing.T, w workload, seed int64, trace bool) *outcome {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	out, err := run(ctx, w, config{seed: seed, seconds: 1, tiny: true, setupReps: 1, trace: trace})
	if err != nil {
		t.Fatalf("%s: %v", w.name, err)
	}
	if !out.res.Correct || out.res.Failed != 0 {
		t.Fatalf("%s: %d of %d ops failed: %v", w.name, out.res.Failed, out.res.Attempted, out.lines)
	}
	return out
}

// TestRunsRepeat runs every workload twice at one seed: the op sequence,
// the schedule digests, the engine's work counts and nsl must match
// exactly, and another seed must produce different instances.
func TestRunsRepeat(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			a := tinyRun(t, w, 7, false).untraced.results
			b := tinyRun(t, w, 7, false).untraced.results
			if len(a) == 0 {
				t.Fatal("no results")
			}
			if len(a) != len(b) {
				t.Fatalf("two runs at one seed gave %d and %d results", len(a), len(b))
			}
			for i := range a {
				if !reflect.DeepEqual(a[i], b[i]) {
					t.Fatalf("two runs at one seed differ at result %d:\n%+v\n%+v", i, a[i], b[i])
				}
			}
			c := tinyRun(t, w, 8, false).untraced.results
			if reflect.DeepEqual(digests(a), digests(c)) {
				t.Fatal("seeds 7 and 8 produced identical schedules")
			}
		})
	}
}

func digests(rs []resultRec) []digest {
	var out []digest
	for _, r := range rs {
		out = append(out, r.digest)
	}
	return out
}

// TestTracedRunReportsEveryLayer checks that a traced run prints exactly
// the per-layer catalog.
func TestTracedRunReportsEveryLayer(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			out := tinyRun(t, w, 7, true)
			if len(out.res.Metrics) != len(layerCatalog) {
				t.Fatalf("got %d metrics, want %d", len(out.res.Metrics), len(layerCatalog))
			}
			for _, m := range layerCatalog {
				if _, ok := out.res.Metrics[m.name]; !ok {
					t.Errorf("missing %s", m.name)
				}
			}
			if out.res.Metrics["core.evaluations"].Value <= 0 {
				t.Error("no candidate evaluations recorded")
			}
		})
	}
}

// TestCheckerRejectsTamperedSchedule feeds the correctness gate a
// library schedule, then an infeasible and a feasible-but-different
// tampering of its document.
func TestCheckerRejectsTamperedSchedule(t *testing.T) {
	inst, err := spec{name: "t", tasks: 30, topo: topo{kind: "ring", procs: 4}, graphSd: 3, hetSd: 4, seed: 5}.generate()
	if err != nil {
		t.Fatal(err)
	}
	res, err := scheduleBSA(context.Background(), inst)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := newReference(res)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkWire(ref.prob, ref.doc, ref); err != nil {
		t.Fatalf("untampered schedule rejected: %v", err)
	}

	// A task slot one time unit longer than its execution cost.
	end := regexp.MustCompile(`"end":([0-9.e+-]+)`)
	loc := end.FindSubmatchIndex(ref.doc)
	v, err := strconv.ParseFloat(string(ref.doc[loc[2]:loc[3]]), 64)
	if err != nil {
		t.Fatal(err)
	}
	longer := append(append(append([]byte(nil), ref.doc[:loc[2]]...), strconv.FormatFloat(v+1, 'g', -1, 64)...), ref.doc[loc[3]:]...)
	if err := checkWire(ref.prob, longer, ref); err == nil {
		t.Error("checker accepted a task slot with the wrong duration")
	}

	// Feasible, but not the schedule the library produces.
	length := regexp.MustCompile(`"length":[0-9.e+-]+`)
	other := length.ReplaceAll(ref.doc, []byte(`"length":1`))
	if err := checkWire(ref.prob, other, ref); err == nil {
		t.Error("checker accepted a document that differs from the library's")
	}
	if err := ref.sameAs(digestOf(other)); err == nil {
		t.Error("digest check accepted a different document")
	}
}

// TestBenchmarkJSONMatchesProgram keeps BENCHMARK.json's workloads and
// metrics in step with what the program prints.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit string }         `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the program %q: %q", i, spec.Workloads[i], w.name, w.why)
		}
	}
	if len(spec.EndToEnd) != len(e2eMetrics) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the program %d", len(spec.EndToEnd), len(e2eMetrics))
	}
	for i, m := range e2eMetrics {
		if spec.EndToEnd[i].Name != m.name || spec.EndToEnd[i].Unit != m.unit {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, the program %+v", i, spec.EndToEnd[i], m)
		}
	}
	if len(spec.PerLayer) != len(layerCatalog) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the program %d", len(spec.PerLayer), len(layerCatalog))
	}
	for i, m := range layerCatalog {
		got := spec.PerLayer[i]
		if got.Name != m.name || got.Unit != m.unit || got.Better != m.better {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, the program %+v", i, got, m)
		}
	}
}

// TestReference checks that the reference computation chases one cycle
// through its whole table, takes a positive time, and that scale leaves a
// time measured at the nominal speed as it is.
func TestReference(t *testing.T) {
	j, n := ref.next[0], 1
	for ; j != 0 && n <= refWords; n++ {
		j = ref.next[j]
	}
	if n != refWords {
		t.Fatalf("the chase cycle from entry 0 has %d entries, want %d", n, refWords)
	}
	if d := ref.measure(); d <= 0 {
		t.Fatalf("reference computation took %v", d)
	}
	if got := scale(time.Second, ms(refNominal)); got != time.Second {
		t.Errorf("at the nominal speed, 1s scales to %v", got)
	}
	if got := scale(time.Second, 2*ms(refNominal)); got != time.Second/2 {
		t.Errorf("at half the nominal speed, 1s scales to %v", got)
	}
}
