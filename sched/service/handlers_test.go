package service_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/sched"
	"repro/sched/gen"
	_ "repro/sched/register"
	"repro/sched/service"
)

// sleepScheduler blocks until its context is done — the deterministic
// fixture behind the deadline (504) tests. gate, when non-nil, lets the
// drain test hold hundreds of jobs in flight and release them at once:
// after the gate opens the scheduler delegates to real BSA, so drained
// jobs still produce verified schedules.
type sleepScheduler struct {
	gate <-chan struct{}
}

func (s sleepScheduler) Name() string { return "testsleep" }

func (s sleepScheduler) Schedule(ctx context.Context, p sched.Problem, opts ...sched.Option) (*sched.Result, error) {
	if s.gate != nil {
		select {
		case <-s.gate:
			bsa, err := sched.Lookup("bsa")
			if err != nil {
				return nil, err
			}
			return bsa.Schedule(ctx, p, opts...)
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	<-ctx.Done()
	return nil, ctx.Err()
}

var (
	registerOnce sync.Once

	gateMu sync.Mutex
	gateCh chan struct{}
)

// armGate installs a fresh drain gate and returns it; the test closes it
// to release every job blocked in a "testgate" run.
func armGate() chan struct{} {
	gateMu.Lock()
	defer gateMu.Unlock()
	gateCh = make(chan struct{})
	return gateCh
}

func currentGate() <-chan struct{} {
	gateMu.Lock()
	defer gateMu.Unlock()
	return gateCh
}

func registerFixtures() {
	registerOnce.Do(func() {
		sched.Register(sched.Descriptor{
			Name:        "testsleep",
			Description: "test fixture: blocks until the context is done",
			New:         func() sched.Scheduler { return sleepScheduler{} },
		})
		sched.Register(sched.Descriptor{
			Name:        "testgate",
			Description: "test fixture: waits for the drain gate, then runs bsa",
			New:         func() sched.Scheduler { return sleepScheduler{gate: currentGate()} },
		})
	})
}

// newTestService starts a Server over httptest and returns it with a
// Client pointed at it and its base URL. The server is drained at test
// end.
func newTestService(t *testing.T, cfg service.Config) (*service.Server, *service.Client, string) {
	t.Helper()
	registerFixtures()
	srv := service.New(cfg)
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := srv.Drain(ctx); err != nil {
			t.Errorf("drain: %v", err)
		}
		ts.Close()
	})
	return srv, service.NewClient(ts.URL, ts.Client()), ts.URL
}

// paperRequest builds a wire request for the paper's worked example.
func paperRequest(t *testing.T) service.ScheduleRequest {
	t.Helper()
	g := gen.PaperExampleGraph()
	sys := gen.PaperExampleSystem(g)
	gdoc, err := g.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	sdoc, err := sys.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	return service.ScheduleRequest{Graph: gdoc, System: sdoc, Seed: 1}
}

// post sends raw bytes at a path and returns the response with its body.
func post(t *testing.T, baseURL, path string, body []byte) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(baseURL+path, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

// compact strips insignificant whitespace from a JSON document.
func compact(t *testing.T, data []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.Compact(&buf, data); err != nil {
		t.Fatalf("compact %q: %v", data, err)
	}
	return buf.Bytes()
}

// wantAPIError asserts err is an *service.APIError with the given HTTP
// status and wire code.
func wantAPIError(t *testing.T, err error, status int, code string) {
	t.Helper()
	var apiErr *service.APIError
	if !errors.As(err, &apiErr) {
		t.Fatalf("want *service.APIError, got %T: %v", err, err)
	}
	if apiErr.StatusCode != status || apiErr.Body.Code != code {
		t.Fatalf("got http %d code %q, want http %d code %q (%s)",
			apiErr.StatusCode, apiErr.Body.Code, status, code, apiErr.Body.Message)
	}
}

func TestScheduleSyncPaperExample(t *testing.T) {
	_, client, _ := newTestService(t, service.Config{Workers: 2})
	ctx := context.Background()

	res, err := client.Schedule(ctx, paperRequest(t))
	if err != nil {
		t.Fatal(err)
	}
	if res.Algorithm != "bsa" {
		t.Errorf("algorithm = %q, want bsa (server default)", res.Algorithm)
	}
	if res.Makespan <= 0 {
		t.Errorf("makespan = %v, want > 0", res.Makespan)
	}
	if len(res.Schedule) == 0 {
		t.Fatal("empty schedule document")
	}

	// The service must return byte-for-byte what the library produces.
	g := gen.PaperExampleGraph()
	sys := gen.PaperExampleSystem(g)
	p, err := sched.NewProblem(g, sys)
	if err != nil {
		t.Fatal(err)
	}
	bsa, err := sched.Lookup("bsa")
	if err != nil {
		t.Fatal(err)
	}
	direct, err := bsa.Schedule(ctx, p, sched.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	want, err := direct.Schedule.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.Schedule, want) {
		t.Errorf("HTTP schedule differs from the library's bytes for the same problem (%d vs %d bytes)", len(res.Schedule), len(want))
	}
	if res.Makespan != direct.Makespan {
		t.Errorf("HTTP makespan %v != library makespan %v", res.Makespan, direct.Makespan)
	}
}

func TestSchedulePerAlgorithmSelection(t *testing.T) {
	_, client, _ := newTestService(t, service.Config{Workers: 2})
	for _, algo := range []string{"bsa", "bsa-full", "dls", "heft", "cpop"} {
		req := paperRequest(t)
		req.Algo = algo
		res, err := client.Schedule(context.Background(), req)
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		if res.Algorithm != algo {
			t.Errorf("algorithm = %q, want %q", res.Algorithm, algo)
		}
		if res.Makespan <= 0 {
			t.Errorf("%s: makespan %v", algo, res.Makespan)
		}
	}
}

func TestScheduleBadJSON(t *testing.T) {
	_, client, baseURL := newTestService(t, service.Config{})
	// A graph document that is valid JSON but not a valid graph.
	_, err := client.Schedule(context.Background(), service.ScheduleRequest{Graph: json.RawMessage(`{"tasks":42}`)})
	wantAPIError(t, err, http.StatusBadRequest, service.CodeBadRequest)

	// A syntactically broken envelope (not just a broken graph document).
	resp, body := post(t, baseURL, "/v1/schedule", []byte(`{`))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400; body %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), service.CodeBadRequest) {
		t.Errorf("error body %s lacks code %q", body, service.CodeBadRequest)
	}
}

// TestClientSendsDocumentsVerbatim pins that the client does not
// re-encode documents: one that is not valid JSON reaches the server and
// comes back as its typed 400, on every document-carrying call.
func TestClientSendsDocumentsVerbatim(t *testing.T) {
	_, client, _ := newTestService(t, service.Config{})
	ctx := context.Background()
	req := paperRequest(t)
	req.Graph = json.RawMessage(`{"tasks":[`)
	_, err := client.Schedule(ctx, req)
	wantAPIError(t, err, http.StatusBadRequest, service.CodeBadRequest)
	_, err = client.Submit(ctx, req)
	wantAPIError(t, err, http.StatusBadRequest, service.CodeBadRequest)
	_, err = client.SubmitBatch(ctx, service.BatchRequest{Graph: req.Graph, System: req.System, Jobs: []service.ScheduleRequest{{Seed: 1}}})
	wantAPIError(t, err, http.StatusBadRequest, service.CodeBadRequest)
}

func TestScheduleMissingSystem(t *testing.T) {
	_, client, _ := newTestService(t, service.Config{})
	req := paperRequest(t)
	req.System = nil
	_, err := client.Schedule(context.Background(), req)
	wantAPIError(t, err, http.StatusBadRequest, service.CodeBadRequest)
}

func TestScheduleUnknownAlgo(t *testing.T) {
	_, client, _ := newTestService(t, service.Config{})
	req := paperRequest(t)
	req.Algo = "no-such-algorithm"
	_, err := client.Schedule(context.Background(), req)
	wantAPIError(t, err, http.StatusNotFound, service.CodeUnknownAlgorithm)
}

func TestScheduleDeadline(t *testing.T) {
	_, client, _ := newTestService(t, service.Config{Workers: 2})
	req := paperRequest(t)
	req.Algo = "testsleep"
	req.TimeoutMS = 30
	_, err := client.Schedule(context.Background(), req)
	wantAPIError(t, err, http.StatusGatewayTimeout, service.CodeDeadlineExceeded)
}

func TestScheduleBodyTooLarge(t *testing.T) {
	_, client, baseURL := newTestService(t, service.Config{MaxBodyBytes: 1024})

	// A body of exactly the cap is accepted, whether the client announces
	// its length or sends it chunked.
	body, err := json.Marshal(paperRequest(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(body) > 1024 {
		t.Fatalf("the paper request is %d bytes, over the 1024-byte cap", len(body))
	}
	body = append(bytes.Repeat([]byte(" "), 1024-len(body)), body...)
	if resp, got := post(t, baseURL, "/v1/schedule", body); resp.StatusCode != http.StatusOK {
		t.Errorf("a body of exactly the cap: http %d %s", resp.StatusCode, got)
	}
	// A reader of unknown length makes the transport send it chunked.
	resp, err := http.Post(baseURL+"/v1/schedule", "application/json", io.MultiReader(bytes.NewReader(body)))
	if err != nil {
		t.Fatal(err)
	}
	got, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("a chunked body of exactly the cap: http %d %s", resp.StatusCode, got)
	}

	req := paperRequest(t)
	req.Topology = nil
	// Inflate the request past the cap with a huge valid graph document.
	var pad bytes.Buffer
	pad.WriteString(`{"tasks":[`)
	for i := 0; i < 200; i++ {
		if i > 0 {
			pad.WriteByte(',')
		}
		pad.WriteString(`{"name":"taskname-padding-padding-`)
		pad.WriteString(strings.Repeat("x", 20))
		pad.WriteString(strconv.Itoa(i))
		pad.WriteString(`","cost":1}`)
	}
	pad.WriteString(`],"edges":[]}`)
	req.Graph = pad.Bytes()
	_, err = client.Schedule(context.Background(), req)
	wantAPIError(t, err, http.StatusRequestEntityTooLarge, service.CodeBodyTooLarge)
}

func TestJobsAsyncLifecycle(t *testing.T) {
	srv, client, _ := newTestService(t, service.Config{Workers: 2})
	ctx := context.Background()

	v, err := client.Submit(ctx, paperRequest(t))
	if err != nil {
		t.Fatal(err)
	}
	if v.ID == "" {
		t.Fatal("submit returned an empty job ID")
	}
	done, err := client.Wait(ctx, v.ID, 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if done.Status != service.JobDone {
		t.Fatalf("status = %q, want done (error: %v)", done.Status, done.Error)
	}
	if done.Result == nil || done.Result.Makespan <= 0 {
		t.Fatalf("missing result: %+v", done.Result)
	}
	if srv.Jobs() == 0 {
		t.Error("job store lost the finished job before its TTL")
	}
}

func TestJobNotFound(t *testing.T) {
	_, client, _ := newTestService(t, service.Config{})
	_, err := client.Job(context.Background(), "j999999")
	wantAPIError(t, err, http.StatusNotFound, service.CodeNotFound)
}

func TestJobTTLEviction(t *testing.T) {
	now := time.Unix(1000, 0)
	var mu sync.Mutex
	clock := func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		return now
	}
	_, client, _ := newTestService(t, service.Config{Workers: 1, JobTTL: time.Minute, Now: clock})
	ctx := context.Background()

	v, err := client.Submit(ctx, paperRequest(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.Wait(ctx, v.ID, 5*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	// Still visible before the TTL...
	if _, err := client.Job(ctx, v.ID); err != nil {
		t.Fatalf("job gone before TTL: %v", err)
	}
	// ...lazily evicted after it.
	mu.Lock()
	now = now.Add(2 * time.Minute)
	mu.Unlock()
	_, err = client.Job(ctx, v.ID)
	wantAPIError(t, err, http.StatusNotFound, service.CodeNotFound)
}

func TestAlgosEndpoint(t *testing.T) {
	_, client, _ := newTestService(t, service.Config{})
	algos, err := client.Algos(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	found := map[string]bool{}
	for _, a := range algos {
		found[a.Name] = true
	}
	for _, want := range []string{"bsa", "bsa-full", "dls", "heft", "cpop"} {
		if !found[want] {
			t.Errorf("algos listing lacks %q (got %v)", want, algos)
		}
	}
}

func TestHealthAndMetrics(t *testing.T) {
	_, client, _ := newTestService(t, service.Config{Workers: 1})
	ctx := context.Background()
	if err := client.Health(ctx); err != nil {
		t.Fatalf("health: %v", err)
	}

	if _, err := client.Schedule(ctx, paperRequest(t)); err != nil {
		t.Fatal(err)
	}
	m, err := client.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if m["jobs_completed"] < 1 {
		t.Errorf("jobs_completed = %d, want >= 1 (metrics: %v)", m["jobs_completed"], m)
	}
	if m["jobs_in_flight"] != 0 {
		t.Errorf("jobs_in_flight = %d, want 0 after completion", m["jobs_in_flight"])
	}
	// BSA ran, so the aggregated evaluation counter must have moved: the
	// incremental engine always evaluates candidates.
	if m["evaluations_total"] < 1 {
		t.Errorf("BSA trace aggregates not collected: %v", m)
	}
}

func TestDrainRejectsNewWork(t *testing.T) {
	srv, client, _ := newTestService(t, service.Config{Workers: 1})
	ctx := context.Background()
	if err := srv.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if err := client.Health(ctx); err == nil {
		t.Error("healthz still ok during drain")
	} else {
		var apiErr *service.APIError
		if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusServiceUnavailable {
			t.Errorf("healthz error = %v, want 503", err)
		}
	}
	_, err := client.Schedule(ctx, paperRequest(t))
	wantAPIError(t, err, http.StatusServiceUnavailable, service.CodeShuttingDown)
}
