package service

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"
	"unsafe"

	"repro/sched/gen"
)

// recordServer starts a one-worker Server behind an HTTP test server,
// drained and closed at test end.
func recordServer(t *testing.T, cfg Config) (*Server, *Client) {
	t.Helper()
	cfg.Workers = 1
	s := New(cfg)
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Drain(ctx); err != nil {
			t.Errorf("drain: %v", err)
		}
		ts.Close()
	})
	return s, NewClient(ts.URL, ts.Client())
}

// paperDocs returns the paper example's graph document, its full system
// document and the system's bare network document.
func paperDocs(t *testing.T) (gdoc, sdoc, ndoc json.RawMessage) {
	t.Helper()
	g := gen.PaperExampleGraph()
	sys := gen.PaperExampleSystem(g)
	var err error
	if gdoc, err = g.MarshalJSON(); err != nil {
		t.Fatal(err)
	}
	if sdoc, err = sys.MarshalJSON(); err != nil {
		t.Fatal(err)
	}
	if ndoc, err = sys.Net.MarshalJSON(); err != nil {
		t.Fatal(err)
	}
	return gdoc, sdoc, ndoc
}

// waitStored waits until each job's stored record is terminal, which
// happens just after its view turns terminal, and fails unless it is
// done.
func waitStored(t *testing.T, s *Server, ids ...string) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for _, id := range ids {
		for {
			rec, ok := s.rec.Get(id)
			if ok && rec.Status.Terminal() {
				if rec.Status != JobDone {
					t.Fatalf("job %s: %q (%v)", id, rec.Status, rec.Error)
				}
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("job %s did not finish", id)
			}
			time.Sleep(time.Millisecond)
		}
	}
}

// copyOf returns where the cache's copy of doc starts, nil when the
// cache holds no document with these bytes.
func (cc *compileCache) copyOf(doc []byte) *byte {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	if e, ok := cc.graphs[string(doc)]; ok {
		return unsafe.SliceData(e.doc)
	}
	for k, e := range cc.systems {
		if k.doc == string(doc) {
			return unsafe.SliceData(e.doc)
		}
	}
	return nil
}

// TestPersistedJobsShareDocuments submits two problems several times
// each, one by one and as a batch: every stored record's documents are
// the compile cache's copies, not copies of their own. Once the cache
// has started over, the records still recompute their exact schedules,
// and their documents become the cache's copies again.
func TestPersistedJobsShareDocuments(t *testing.T) {
	s, client := recordServer(t, Config{})
	ctx := context.Background()
	gdoc, sdoc, ndoc := paperDocs(t)
	het := &HetSpec{Lo: 1, Hi: 10, Seed: 2}

	var ids []string
	for seed := int64(1); seed <= 3; seed++ {
		for _, req := range []ScheduleRequest{
			{Graph: gdoc, System: sdoc, Seed: seed},
			{Graph: gdoc, Topology: ndoc, Het: het, Seed: seed},
		} {
			v, err := client.Submit(ctx, req)
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, v.ID)
		}
	}
	batch, err := client.SubmitBatch(ctx, BatchRequest{Graph: gdoc, System: sdoc, Jobs: []ScheduleRequest{
		{Seed: 4}, {Seed: 5}, {Topology: ndoc, Het: het, Seed: 4},
	}})
	if err != nil {
		t.Fatal(err)
	}
	for _, item := range batch.Jobs {
		if item.Error != nil {
			t.Fatal(item.Error)
		}
		ids = append(ids, item.Job.ID)
	}
	waitStored(t, s, ids...)

	shared := func() {
		t.Helper()
		for _, id := range ids {
			rec, ok := s.rec.Get(id)
			if !ok || rec.Request == nil {
				t.Fatalf("job %s has no stored request", id)
			}
			for _, doc := range [][]byte{rec.Request.Graph, rec.Request.System, rec.Request.Topology} {
				if len(doc) == 0 {
					continue
				}
				if want := s.compiled.copyOf(doc); want == nil || unsafe.SliceData(doc) != want {
					t.Errorf("job %s keeps a %d-byte document of its own, not the compile cache's copy", id, len(doc))
				}
			}
		}
	}
	shared()

	// Start the cache over the way its budget does: the next problem does
	// not fit beside the cached ones, so its insert drops them.
	other := hetRequest(t, 9)
	probe := newCompileCache(compileBudget)
	if _, _, errBody := probe.problem(other); errBody != nil {
		t.Fatal(errBody)
	}
	charged, _, _ := s.compiled.entries()
	s.compiled.budget = charged + probe.charged - 1
	if _, _, errBody := s.compile(other); errBody != nil {
		t.Fatal(errBody)
	}
	if s.compiled.copyOf(gdoc) != nil {
		t.Fatal("the compile cache did not start over")
	}
	s.compiled.budget = compileBudget

	for _, id := range ids {
		rec, _ := s.rec.Get(id)
		s.jobs.delete(id) // drop the retained result: recompute from the record
		res, err := s.resultOf(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		got, err := res.Schedule.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, rec.Result.Schedule) {
			t.Errorf("job %s recomputes another schedule after the cache started over", id)
		}
	}
	shared()
}

// rawRequestRecord is Record as encoded before requests were held by
// reference: the request was stored as its wire document.
type rawRequestRecord struct {
	ID        string            `json:"id"`
	Kind      RecordKind        `json:"kind"`
	Algo      string            `json:"algo"`
	Status    JobStatus         `json:"status"`
	Key       string            `json:"idempotency_key,omitempty"`
	Request   json.RawMessage   `json:"request,omitempty"`
	Delta     json.RawMessage   `json:"delta,omitempty"`
	Seed      int64             `json:"seed,omitempty"`
	SourceID  string            `json:"source_id,omitempty"`
	Result    *ScheduleResponse `json:"result,omitempty"`
	Error     *ErrorBody        `json:"error,omitempty"`
	CreatedAt time.Time         `json:"created_at"`
	DoneAt    time.Time         `json:"done_at,omitzero"`
}

// TestRecordEncodingUnchanged pins the record format that WAL lines,
// snapshots and replication bodies carry: a record the server builds
// encodes exactly as a record holding the request's wire document did,
// for every system source, with documents sent compact or indented.
func TestRecordEncodingUnchanged(t *testing.T) {
	s, client := recordServer(t, Config{})
	gdoc, sdoc, ndoc := paperDocs(t)
	indent := func(doc json.RawMessage) json.RawMessage {
		var buf bytes.Buffer
		if err := json.Indent(&buf, doc, " ", "\t"); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	for _, tc := range []struct {
		name string
		req  ScheduleRequest
	}{
		{"system", ScheduleRequest{Algo: "bsa", Graph: gdoc, System: sdoc, Seed: 1}},
		{"topology", ScheduleRequest{Graph: gdoc, Topology: ndoc, Seed: 2, IdempotencyKey: "k<&>"}},
		{"topo+het", ScheduleRequest{Graph: gdoc, Topo: &TopoSpecWire{Kind: "ring", Procs: 4}, Het: &HetSpec{Lo: 1, Hi: 5, Seed: 3}, TimeoutMS: 60000}},
		{"indented system", ScheduleRequest{Graph: indent(gdoc), System: indent(sdoc), Seed: 4}},
		{"indented topology+het", ScheduleRequest{Graph: indent(gdoc), Topology: indent(ndoc), Het: &HetSpec{Lo: 1, Hi: 5}, Seed: 5}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			v, err := client.Submit(context.Background(), tc.req)
			if err != nil {
				t.Fatal(err)
			}
			waitStored(t, s, v.ID)
			rec, _ := s.rec.Get(v.ID)
			got, err := json.Marshal(rec)
			if err != nil {
				t.Fatal(err)
			}
			want, err := json.Marshal(&rawRequestRecord{
				ID: rec.ID, Kind: rec.Kind, Algo: rec.Algo, Status: rec.Status, Key: rec.Key,
				Request: tc.req.wireDoc(), Delta: rec.Delta, Seed: rec.Seed, SourceID: rec.SourceID,
				Result: rec.Result, Error: rec.Error, CreatedAt: rec.CreatedAt, DoneAt: rec.DoneAt,
			})
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("record encodes as\n%s\nwant\n%s", got, want)
			}
		})
	}
}

// TestRawRequestWALReplays boots a server on a WAL log written by the
// code that stored each request as its wire document
// (testdata/rawrequest-wal: j1 and j2 finished, j3 accepted but never
// run; j3 is j1's problem and seed, its system document sent indented).
// Every record loads and re-encodes to the line it was read from, the
// finished jobs are served with their stored bytes, and the pending one
// re-runs to j1's schedule.
func TestRawRequestWALReplays(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "rawrequest-wal", "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, walFileName), data, 0o644); err != nil {
		t.Fatal(err)
	}
	logged := make(map[string]json.RawMessage) // job ID -> its last logged record
	for _, line := range bytes.Split(bytes.TrimSpace(data), []byte("\n")) {
		var e struct {
			Rec json.RawMessage `json:"rec"`
		}
		var id struct {
			ID string `json:"id"`
		}
		if err := json.Unmarshal(line, &e); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(e.Rec, &id); err != nil {
			t.Fatal(err)
		}
		logged[id.ID] = e.Rec
	}
	wal, err := OpenWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	if wal.Len() != 3 {
		t.Fatalf("the WAL holds %d records, want 3", wal.Len())
	}
	for id, want := range logged {
		rec, _ := wal.Get(id)
		if got, err := json.Marshal(rec); err != nil || !bytes.Equal(got, want) {
			t.Errorf("record %s re-encodes as\n%s\nwant\n%s (%v)", id, got, want, err)
		}
	}
	var stored [3]*Record
	for i, id := range []string{"j1", "j2", "j3"} {
		stored[i], _ = wal.Get(id)
	}

	// The fixture's clock: its finished jobs must not have expired.
	now := func() time.Time { return stored[2].CreatedAt }
	s, client := recordServer(t, Config{Store: wal, Now: now})
	ctx := context.Background()
	for _, rec := range stored[:2] {
		v, err := client.Job(ctx, rec.ID)
		if err != nil {
			t.Fatal(err)
		}
		if v.Status != JobDone || !bytes.Equal(v.Result.Schedule, rec.Result.Schedule) {
			t.Errorf("finished job %s is served as %q with another schedule", rec.ID, v.Status)
		}
	}
	waitStored(t, s, "j3")
	replayed, _ := s.rec.Get("j3")
	if !bytes.Equal(replayed.Result.Schedule, stored[0].Result.Schedule) {
		t.Errorf("pending job j3 re-ran to\n%s\nwant j1's\n%s", replayed.Result.Schedule, stored[0].Result.Schedule)
	}
	if s.metrics.StoreReplays.Value() != 1 {
		t.Errorf("store_replays_total = %d, want 1", s.metrics.StoreReplays.Value())
	}
}
