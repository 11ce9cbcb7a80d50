// Command schedctl drives a running schedd from the command line through
// service.Client.
//
// Usage:
//
//	schedctl [-server URL] schedule -graph g.json (-topo t.json | -system s.json)
//	         [-algo name] [-het lo,hi] [-het-seed N] [-seed N] [-timeout d]
//	         [-async] [-json]
//	schedctl [-server URL] reschedule JOB_ID -delta d.json [-seed N]
//	         [-timeout d] [-async] [-poll d] [-json]
//	schedctl [-server URL] status JOB_ID [-json]
//	schedctl [-server URL] wait JOB_ID [-poll d] [-json]
//	schedctl [-server URL] watch JOB_ID [-json]
//	schedctl [-server URL] batch (-file b.json | -graph g.json (-topo t.json | -system s.json)
//	         [-algo name] [-count N] [-seed-base N]) [-key-prefix P] [-wait] [-json]
//	schedctl [-server URL] algos
//	schedctl [-server URL] health
//	schedctl [-server URL] cluster
//	schedctl [-server URL] metrics
//
// schedule submits the problem synchronously by default and prints the
// summary, makespan and stats; -json dumps the raw wire response instead
// (the schedule document inside it is byte-identical to what cmd/bsasched
// -json prints for the same problem). With -async it submits a job and
// prints its ID without waiting.
//
// reschedule applies a quasi-dynamic problem delta (sched's Delta
// interchange document: remove_procs, remove_links, exec_factors,
// comm_factors, add_tasks, add_edges) to a finished job's schedule and
// warm-starts BSA from it. By default it waits for the reconverged
// schedule; -async prints the new job's ID instead.
//
// watch follows a job's SSE event stream instead of polling, printing
// each status transition and exiting when the job is terminal.
//
// batch submits many jobs in one request: either a full BatchRequest
// document (-file), or -count copies of one problem with seeds
// seed-base, seed-base+1, ... (a parameter sweep). It prints the
// accepted job IDs; -wait then follows them all to completion.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"repro/sched/service"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "schedctl:", err)
		os.Exit(1)
	}
}

func usage() error {
	return fmt.Errorf("usage: schedctl [-server URL] <schedule|batch|reschedule|status|wait|watch|algos|health|cluster|metrics> [args]")
}

func run() error {
	server := flag.String("server", "http://127.0.0.1:8080", "schedd base URL")
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		return usage()
	}
	client := service.NewClient(*server, nil)
	ctx := context.Background()

	switch args[0] {
	case "schedule":
		return schedule(ctx, client, args[1:])
	case "reschedule":
		return reschedule(ctx, client, args[1:])
	case "batch":
		return batch(ctx, client, args[1:])
	case "watch":
		fs := flag.NewFlagSet("watch", flag.ExitOnError)
		asJSON := fs.Bool("json", false, "print the raw wire views")
		id, rest := peelJobID(args[1:])
		if err := fs.Parse(rest); err != nil {
			return err
		}
		if id == "" && fs.NArg() == 1 {
			id = fs.Arg(0)
		} else if fs.NArg() != 0 {
			id = ""
		}
		if id == "" {
			return fmt.Errorf("watch needs exactly one JOB_ID")
		}
		var watchErr error
		v, err := client.Watch(ctx, id, func(v *service.JobView) {
			if v.Status.Terminal() {
				return // the terminal view prints in full below
			}
			if *asJSON {
				watchErr = dumpJSON(v)
			} else {
				fmt.Printf("%s: %s\n", v.ID, v.Status)
			}
		})
		if err != nil {
			return err
		}
		if watchErr != nil {
			return watchErr
		}
		return printJob(v, *asJSON)
	case "status", "wait":
		fs := flag.NewFlagSet(args[0], flag.ExitOnError)
		poll := fs.Duration("poll", 100*time.Millisecond, "poll interval (wait)")
		asJSON := fs.Bool("json", false, "print the raw wire response")
		id, rest := peelJobID(args[1:])
		if err := fs.Parse(rest); err != nil {
			return err
		}
		if id == "" && fs.NArg() == 1 {
			id = fs.Arg(0)
		} else if fs.NArg() != 0 {
			id = ""
		}
		if id == "" {
			return fmt.Errorf("%s needs exactly one JOB_ID", args[0])
		}
		var (
			v   *service.JobView
			err error
		)
		if args[0] == "wait" {
			v, err = client.Wait(ctx, id, *poll)
		} else {
			v, err = client.Job(ctx, id)
		}
		if err != nil {
			return err
		}
		return printJob(v, *asJSON)
	case "algos":
		algos, err := client.Algos(ctx)
		if err != nil {
			return err
		}
		for _, a := range algos {
			name := a.Name
			if len(a.Aliases) > 0 {
				name += " (" + strings.Join(a.Aliases, ", ") + ")"
			}
			fmt.Printf("%-24s %s\n", name, a.Description)
		}
		return nil
	case "health":
		if err := client.Health(ctx); err != nil {
			return err
		}
		fmt.Println("ok")
		return nil
	case "cluster":
		view, err := client.Cluster(ctx)
		if err != nil {
			return err
		}
		for _, n := range view.Nodes {
			fmt.Println(clusterLine(n))
		}
		return nil
	case "metrics":
		m, err := client.Metrics(ctx)
		if err != nil {
			return err
		}
		keys := make([]string, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Printf("%-24s %d\n", k, m[k])
		}
		return nil
	default:
		return usage()
	}
}

// clusterLine formats one member of the cluster view: a "*" on the
// answering node, its token and address, its probe health and, when the
// answering node runs a failure detector, that detector's verdict on it.
func clusterLine(n service.NodeView) string {
	mark, health := " ", "healthy"
	if n.Self {
		mark = "*"
	}
	if !n.Healthy {
		health = "unreachable"
	}
	if n.State == "" {
		return fmt.Sprintf("%s %-10s %-24s %s", mark, n.Token, n.Addr, health)
	}
	return fmt.Sprintf("%s %-10s %-24s %-11s %s", mark, n.Token, n.Addr, health, n.State)
}

// batch submits many jobs in one POST /v1/batch round trip.
func batch(ctx context.Context, client *service.Client, args []string) error {
	fs := flag.NewFlagSet("batch", flag.ExitOnError)
	filePath := fs.String("file", "", "full BatchRequest JSON document")
	graphPath := fs.String("graph", "", "task graph JSON file (sweep mode)")
	topoPath := fs.String("topo", "", "topology (bare network) JSON file")
	systemPath := fs.String("system", "", "full system JSON file")
	algo := fs.String("algo", "", "algorithm name (empty = server default)")
	count := fs.Int("count", 1, "number of sweep jobs")
	seedBase := fs.Int64("seed-base", 1, "first sweep seed (job i uses seed-base+i)")
	keyPrefix := fs.String("key-prefix", "", "idempotency key prefix (job i gets PREFIX-i)")
	wait := fs.Bool("wait", false, "follow every accepted job to completion")
	poll := fs.Duration("poll", 100*time.Millisecond, "poll interval while waiting")
	asJSON := fs.Bool("json", false, "print the raw wire response")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var req service.BatchRequest
	switch {
	case *filePath != "":
		data, err := os.ReadFile(*filePath)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(data, &req); err != nil {
			return fmt.Errorf("parse %s: %v", *filePath, err)
		}
	case *graphPath != "" && (*topoPath != "") != (*systemPath != ""):
		var err error
		if req.Graph, err = os.ReadFile(*graphPath); err != nil {
			return err
		}
		if *systemPath != "" {
			if req.System, err = os.ReadFile(*systemPath); err != nil {
				return err
			}
		} else if req.Topology, err = os.ReadFile(*topoPath); err != nil {
			return err
		}
		if *count < 1 {
			return fmt.Errorf("batch needs -count >= 1")
		}
		for i := 0; i < *count; i++ {
			job := service.ScheduleRequest{Algo: *algo, Seed: *seedBase + int64(i)}
			if *keyPrefix != "" {
				job.IdempotencyKey = fmt.Sprintf("%s-%d", *keyPrefix, i)
			}
			req.Jobs = append(req.Jobs, job)
		}
	default:
		return fmt.Errorf("batch needs -file, or -graph and exactly one of -topo / -system")
	}

	resp, err := client.SubmitBatch(ctx, req)
	if err != nil {
		return err
	}
	if *asJSON && !*wait {
		return dumpJSON(resp)
	}
	failed := 0
	for i, item := range resp.Jobs {
		if item.Error != nil {
			failed++
			fmt.Fprintf(os.Stderr, "schedctl: job %d rejected: %s\n", i, item.Error.Error())
			continue
		}
		if !*wait {
			fmt.Println(item.Job.ID)
		}
	}
	if *wait {
		for _, item := range resp.Jobs {
			if item.Job == nil {
				continue
			}
			v, err := client.Wait(ctx, item.Job.ID, *poll)
			if err != nil {
				return err
			}
			if err := printJob(v, *asJSON); err != nil {
				return err
			}
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d of %d jobs rejected", failed, len(resp.Jobs))
	}
	return nil
}

// peelJobID splits a leading non-flag token off the argument list so the
// documented "SUBCOMMAND JOB_ID -flag ..." order works: the standard flag
// package stops parsing at the first positional argument, so the JOB_ID
// must come off before Parse sees the flags. A trailing JOB_ID
// ("SUBCOMMAND -flag ... JOB_ID") still works via fs.Arg(0).
func peelJobID(args []string) (id string, rest []string) {
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		return args[0], args[1:]
	}
	return "", args
}

func schedule(ctx context.Context, client *service.Client, args []string) error {
	fs := flag.NewFlagSet("schedule", flag.ExitOnError)
	graphPath := fs.String("graph", "", "task graph JSON file (required)")
	topoPath := fs.String("topo", "", "topology (bare network) JSON file")
	systemPath := fs.String("system", "", "full system JSON file (network + factor matrices)")
	algo := fs.String("algo", "", "algorithm name (empty = server default)")
	het := fs.String("het", "", "random heterogeneity range lo,hi over -topo")
	hetSeed := fs.Int64("het-seed", 1, "heterogeneity factor seed")
	seed := fs.Int64("seed", 1, "scheduler tie-break seed")
	timeout := fs.Duration("timeout", 0, "per-request deadline (0 = none)")
	async := fs.Bool("async", false, "submit a job and print its ID instead of waiting")
	asJSON := fs.Bool("json", false, "print the raw wire response")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *graphPath == "" || (*topoPath == "") == (*systemPath == "") {
		return fmt.Errorf("schedule needs -graph and exactly one of -topo / -system")
	}

	req := service.ScheduleRequest{Algo: *algo, Seed: *seed, TimeoutMS: timeout.Milliseconds()}
	var err error
	if req.Graph, err = os.ReadFile(*graphPath); err != nil {
		return err
	}
	if *systemPath != "" {
		if req.System, err = os.ReadFile(*systemPath); err != nil {
			return err
		}
	} else {
		if req.Topology, err = os.ReadFile(*topoPath); err != nil {
			return err
		}
	}
	if *het != "" {
		var lo, hi float64
		if _, err := fmt.Sscanf(strings.ReplaceAll(*het, " ", ""), "%f,%f", &lo, &hi); err != nil {
			return fmt.Errorf("bad -het %q (want lo,hi): %v", *het, err)
		}
		req.Het = &service.HetSpec{Lo: lo, Hi: hi, Seed: *hetSeed}
	}

	// Fire and forget, exactly as documented: the printed ID feeds the
	// status / wait subcommands.
	if *async {
		v, err := client.Submit(ctx, req)
		if err != nil {
			return err
		}
		if *asJSON {
			return dumpJSON(v)
		}
		fmt.Println(v.ID)
		return nil
	}
	res, err := client.Schedule(ctx, req)
	if err != nil {
		return err
	}
	return printResult(res, *asJSON)
}

func reschedule(ctx context.Context, client *service.Client, args []string) error {
	fs := flag.NewFlagSet("reschedule", flag.ExitOnError)
	deltaPath := fs.String("delta", "", "problem delta JSON file (required)")
	seed := fs.Int64("seed", 1, "reconvergence tie-break seed")
	timeout := fs.Duration("timeout", 0, "per-request deadline (0 = none)")
	async := fs.Bool("async", false, "submit the reschedule job and print its ID instead of waiting")
	poll := fs.Duration("poll", 100*time.Millisecond, "poll interval while waiting")
	asJSON := fs.Bool("json", false, "print the raw wire response")
	id, rest := peelJobID(args)
	if err := fs.Parse(rest); err != nil {
		return err
	}
	if id == "" && fs.NArg() == 1 {
		id = fs.Arg(0)
	} else if fs.NArg() != 0 {
		id = ""
	}
	if id == "" || *deltaPath == "" {
		return fmt.Errorf("reschedule needs exactly one JOB_ID and -delta")
	}
	delta, err := os.ReadFile(*deltaPath)
	if err != nil {
		return err
	}
	req := service.RescheduleRequest{Delta: delta, Seed: *seed, TimeoutMS: timeout.Milliseconds()}
	v, err := client.Reschedule(ctx, id, req)
	if err != nil {
		return err
	}
	if *async {
		if *asJSON {
			return dumpJSON(v)
		}
		fmt.Println(v.ID)
		return nil
	}
	done, err := client.Wait(ctx, v.ID, *poll)
	if err != nil {
		return err
	}
	return printJob(done, *asJSON)
}

func printJob(v *service.JobView, asJSON bool) error {
	if asJSON {
		return dumpJSON(v)
	}
	if v.Error != nil {
		return fmt.Errorf("job %s failed: %s", v.ID, v.Error.Error())
	}
	if v.Result == nil {
		fmt.Printf("%s: %s (%s)\n", v.ID, v.Status, v.Algo)
		return nil
	}
	fmt.Printf("%s: %s\n", v.ID, v.Status)
	return printResult(v.Result, false)
}

func printResult(res *service.ScheduleResponse, asJSON bool) error {
	if asJSON {
		return dumpJSON(res)
	}
	fmt.Println(res.Summary)
	fmt.Printf("makespan %.2f in %v\n", res.Makespan, time.Duration(res.ElapsedNS).Round(time.Microsecond))
	keys := make([]string, 0, len(res.Stats))
	for k := range res.Stats {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("  %-16s %g\n", k, res.Stats[k])
	}
	return nil
}

func dumpJSON(v any) error {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}
