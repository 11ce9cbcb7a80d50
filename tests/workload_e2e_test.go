package tests

import (
	"bytes"
	"context"
	"math/rand"
	"net"
	"net/http"
	"path/filepath"
	"testing"
	"time"

	"repro/sched"
	"repro/sched/gen"
	"repro/sched/service"
	"repro/sched/system"
	"repro/sched/workload"
)

// packFiles lists the committed scenario pack: the two STG instances and
// the two workflow-JSON instances under testdata/workloads.
var packFiles = []string{
	"diamond.stg",
	"sparse10.stg",
	"montage-small.json",
	"epigenomics-small.json",
}

// TestWorkloadPackSchedulesEndToEnd is the acceptance proof for the
// workload subsystem: every committed scenario-pack instance — STG and
// workflow JSON — imports through workload.LoadFile and schedules both
// through the library and over schedd's HTTP wire against a server-built
// named topology, with byte-identical schedule documents.
func TestWorkloadPackSchedulesEndToEnd(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := service.New(service.Config{Workers: 2})
	hs := &http.Server{Handler: srv}
	go hs.Serve(ln) //nolint:errcheck
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := srv.Drain(ctx); err != nil {
			t.Errorf("drain: %v", err)
		}
		hs.Close()
	})
	client := service.NewClient("http://"+ln.Addr().String(), nil)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	bsa, err := sched.Lookup("bsa")
	if err != nil {
		t.Fatal(err)
	}
	for _, file := range packFiles {
		t.Run(file, func(t *testing.T) {
			g, err := workload.LoadFile(filepath.Join("..", "testdata", "workloads", file), workload.Options{})
			if err != nil {
				t.Fatalf("import: %v", err)
			}
			if g.NumTasks() == 0 || g.NumEdges() == 0 {
				t.Fatalf("degenerate import: %d tasks, %d edges", g.NumTasks(), g.NumEdges())
			}

			// Library side: the imported graph on a NUMA-like hierarchical
			// fabric, scheduled by BSA.
			nw, err := gen.Topology(gen.TopoSpec{Kind: gen.Hierarchical, Procs: 8}, rand.New(rand.NewSource(1)))
			if err != nil {
				t.Fatal(err)
			}
			p, err := sched.NewProblem(g, system.NewUniform(nw, g.NumTasks(), g.NumEdges()))
			if err != nil {
				t.Fatal(err)
			}
			direct, err := bsa.Schedule(ctx, p, sched.WithSeed(7))
			if err != nil {
				t.Fatalf("library schedule: %v", err)
			}
			want, err := direct.Schedule.MarshalJSON()
			if err != nil {
				t.Fatal(err)
			}

			// Wire side: same graph document, same topology by name.
			gdoc, err := g.MarshalJSON()
			if err != nil {
				t.Fatal(err)
			}
			res, err := client.Schedule(ctx, service.ScheduleRequest{
				Graph: gdoc,
				Topo:  &service.TopoSpecWire{Kind: "hierarchical", Procs: 8, Seed: 1},
				Seed:  7,
			})
			if err != nil {
				t.Fatalf("HTTP schedule: %v", err)
			}
			if got, want := compactJSON(t, res.Schedule), compactJSON(t, want); !bytes.Equal(got, want) {
				t.Errorf("HTTP schedule != library schedule\nhttp:    %s\nlibrary: %s", got, want)
			}
			if res.Makespan != direct.Makespan {
				t.Errorf("HTTP makespan %v != library %v", res.Makespan, direct.Makespan)
			}
		})
	}
}
