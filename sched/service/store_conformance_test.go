package service_test

import (
	"encoding/json"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/sched/service"
)

// The store conformance suite: one shared test table run against every
// Store implementation. A new store lands as one file plus a factory
// registration here; the suite pins the exact contract server.go relies
// on — snapshot isolation, first-terminal-wins, clockless TTL sweeping,
// and snapshots that stay readable after eviction.

// storeFactories enumerates every Store implementation under test.
func storeFactories() map[string]func(t *testing.T) service.Store {
	return map[string]func(t *testing.T) service.Store{
		"mem": func(t *testing.T) service.Store { return service.NewMemStore() },
		"wal": func(t *testing.T) service.Store {
			w, err := service.OpenWAL(t.TempDir())
			if err != nil {
				t.Fatalf("open wal: %v", err)
			}
			return w
		},
	}
}

// forEachStore runs test once per registered implementation.
func forEachStore(t *testing.T, test func(t *testing.T, s service.Store)) {
	for name, mk := range storeFactories() {
		t.Run(name, func(t *testing.T) {
			s := mk(t)
			t.Cleanup(func() {
				if err := s.Close(); err != nil {
					t.Errorf("close: %v", err)
				}
			})
			test(t, s)
		})
	}
}

// storeEpoch is the fixed base instant of the suite's injected clock —
// stores are clockless, so tests pass absolute times in.
var storeEpoch = time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)

// queuedRec builds a fresh non-terminal record. key may be empty.
func queuedRec(id, key string) *service.Record {
	return &service.Record{
		ID:        id,
		Kind:      service.KindSchedule,
		Algo:      "bsa",
		Status:    service.JobQueued,
		Key:       key,
		Request:   &service.ScheduleRequest{Seed: 1},
		CreatedAt: storeEpoch,
	}
}

// doneRec builds the terminal form of a record for Finish.
func doneRec(id, key string, at time.Time) *service.Record {
	rec := queuedRec(id, key)
	rec.Status = service.JobDone
	rec.Result = &service.ScheduleResponse{Algorithm: "bsa", Makespan: 42, Schedule: json.RawMessage(`{}`)}
	rec.DoneAt = at
	return rec
}

func TestStorePutGetSnapshot(t *testing.T) {
	forEachStore(t, func(t *testing.T, s service.Store) {
		if err := s.Put(queuedRec("j1", "")); err != nil {
			t.Fatal(err)
		}
		got, ok := s.Get("j1")
		if !ok || got.Status != service.JobQueued || got.Kind != service.KindSchedule {
			t.Fatalf("get = %+v, %v", got, ok)
		}
		// The returned record is a snapshot: mutating it must not leak
		// into the store.
		got.Status = service.JobFailed
		again, _ := s.Get("j1")
		if again.Status != service.JobQueued {
			t.Errorf("snapshot mutation leaked into the store: %q", again.Status)
		}
		if s.Len() != 1 {
			t.Errorf("len = %d, want 1", s.Len())
		}
		if _, ok := s.Get("j2"); ok {
			t.Error("get of an absent ID reported ok")
		}
	})
}

func TestStoreDuplicatePutRejected(t *testing.T) {
	forEachStore(t, func(t *testing.T, s service.Store) {
		if err := s.Put(queuedRec("j1", "")); err != nil {
			t.Fatal(err)
		}
		if err := s.Put(queuedRec("j1", "")); err == nil {
			t.Error("second Put of the same ID succeeded")
		}
		if s.Len() != 1 {
			t.Errorf("len = %d after duplicate put, want 1", s.Len())
		}
	})
}

// TestStoreTerminalIdempotence pins first-terminal-wins: once a record
// is terminal, a second Finish — even with a different outcome — is a
// silent no-op.
func TestStoreTerminalIdempotence(t *testing.T) {
	forEachStore(t, func(t *testing.T, s service.Store) {
		if err := s.Finish(doneRec("ghost", "", storeEpoch)); err == nil {
			t.Error("Finish of an unknown ID succeeded")
		}
		if err := s.Put(queuedRec("j1", "")); err != nil {
			t.Fatal(err)
		}
		if err := s.Finish(queuedRec("j1", "")); err == nil {
			t.Error("Finish with a non-terminal status succeeded")
		}
		if err := s.Finish(doneRec("j1", "", storeEpoch)); err != nil {
			t.Fatal(err)
		}
		// The conflicting second terminal state must not displace the first.
		late := queuedRec("j1", "")
		late.Status = service.JobFailed
		late.Error = &service.ErrorBody{Code: service.CodeScheduleFailed, Message: "too late"}
		late.DoneAt = storeEpoch.Add(time.Hour)
		if err := s.Finish(late); err != nil {
			t.Fatalf("idempotent second finish errored: %v", err)
		}
		got, _ := s.Get("j1")
		if got.Status != service.JobDone || got.Result == nil || got.Result.Makespan != 42 {
			t.Errorf("first terminal state lost: %+v", got)
		}
	})
}

func TestStoreKeyIndex(t *testing.T) {
	forEachStore(t, func(t *testing.T, s service.Store) {
		if err := s.Put(queuedRec("j1", "alpha")); err != nil {
			t.Fatal(err)
		}
		rec, ok := s.ByKey("alpha")
		if !ok || rec.ID != "j1" {
			t.Fatalf("bykey = %+v, %v", rec, ok)
		}
		if _, ok := s.ByKey("beta"); ok {
			t.Error("unknown key resolved")
		}
		// Eviction frees the key for reuse by a different job.
		if !s.Evict("j1") {
			t.Fatal("evict reported the record absent")
		}
		if _, ok := s.ByKey("alpha"); ok {
			t.Error("key survived its record's eviction")
		}
		if err := s.Put(queuedRec("j2", "alpha")); err != nil {
			t.Fatal(err)
		}
		if rec, ok := s.ByKey("alpha"); !ok || rec.ID != "j2" {
			t.Errorf("reused key resolves to %+v, %v", rec, ok)
		}
	})
}

// TestStoreTTLSweep drives eviction with an injected clock: Sweep takes
// the time as an argument, so the test owns every instant.
func TestStoreTTLSweep(t *testing.T) {
	forEachStore(t, func(t *testing.T, s service.Store) {
		const ttl = time.Minute
		if err := s.Put(queuedRec("pending", "")); err != nil {
			t.Fatal(err)
		}
		for _, id := range []string{"old", "new"} {
			if err := s.Put(queuedRec(id, "")); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Finish(doneRec("old", "", storeEpoch)); err != nil {
			t.Fatal(err)
		}
		if err := s.Finish(doneRec("new", "", storeEpoch.Add(30*time.Second))); err != nil {
			t.Fatal(err)
		}

		if n := s.Sweep(storeEpoch.Add(ttl-time.Second), ttl); n != 0 {
			t.Errorf("sweep before expiry evicted %d", n)
		}
		// At epoch+ttl only "old" has aged out; "pending" never expires —
		// it is not terminal.
		if n := s.Sweep(storeEpoch.Add(ttl), ttl); n != 1 {
			t.Errorf("sweep at expiry evicted %d, want 1", n)
		}
		if _, ok := s.Get("old"); ok {
			t.Error("expired record still present")
		}
		if _, ok := s.Get("new"); !ok {
			t.Error("unexpired record swept")
		}
		if _, ok := s.Get("pending"); !ok {
			t.Error("pending record swept")
		}
		// ttl <= 0 disables sweeping entirely.
		if n := s.Sweep(storeEpoch.Add(time.Hour), 0); n != 0 {
			t.Errorf("zero ttl swept %d", n)
		}
	})
}

func TestStoreListSnapshot(t *testing.T) {
	forEachStore(t, func(t *testing.T, s service.Store) {
		for i := range 3 {
			if err := s.Put(queuedRec(fmt.Sprintf("j%d", i), "")); err != nil {
				t.Fatal(err)
			}
		}
		recs := s.List()
		if len(recs) != 3 {
			t.Fatalf("list = %d records, want 3", len(recs))
		}
		for _, rec := range recs {
			rec.Status = service.JobFailed
		}
		for i := range 3 {
			if got, _ := s.Get(fmt.Sprintf("j%d", i)); got.Status != service.JobQueued {
				t.Fatalf("list snapshot mutation leaked into %s", got.ID)
			}
		}
	})
}

// TestStoreEvictionWhileStreaming pins the property the SSE handler
// leans on: a snapshot handed out by Get/List stays fully readable while
// — and after — the janitor evicts the record underneath it. Run under
// -race this also hammers the implementations' locking.
func TestStoreEvictionWhileStreaming(t *testing.T) {
	forEachStore(t, func(t *testing.T, s service.Store) {
		const n = 64
		for i := range n {
			id := fmt.Sprintf("j%d", i)
			if err := s.Put(queuedRec(id, "")); err != nil {
				t.Fatal(err)
			}
			if err := s.Finish(doneRec(id, "", storeEpoch)); err != nil {
				t.Fatal(err)
			}
		}

		// The deterministic half: take a snapshot, evict its record, keep
		// reading the snapshot.
		held, ok := s.Get("j0")
		if !ok {
			t.Fatal("j0 missing")
		}
		if !s.Evict("j0") {
			t.Fatal("evict j0")
		}
		if held.Result == nil || held.Result.Makespan != 42 || held.Status != service.JobDone {
			t.Fatalf("snapshot degraded after eviction: %+v", held)
		}

		// The concurrent half: readers stream snapshots while sweeps and
		// evictions remove everything underneath them.
		var wg sync.WaitGroup
		stop := make(chan struct{})
		for range 4 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					for _, rec := range s.List() {
						if rec.Result != nil && rec.Result.Makespan != 42 {
							t.Errorf("torn snapshot: %+v", rec)
							return
						}
					}
					if rec, ok := s.Get("j17"); ok && rec.Status != service.JobDone {
						t.Errorf("torn get: %+v", rec)
						return
					}
				}
			}()
		}
		for i := 1; i < n; i += 2 {
			s.Evict(fmt.Sprintf("j%d", i))
		}
		s.Sweep(storeEpoch.Add(time.Hour), time.Minute)
		close(stop)
		wg.Wait()
		if s.Len() != 0 {
			t.Errorf("len = %d after full sweep, want 0", s.Len())
		}
	})
}

// TestStoreAdopt pins the reconciliation contract: Adopt force-installs
// a replicated record — unknown IDs insert, pending entries are
// replaced in place, but a record that already reached a terminal state
// locally is never displaced (first-terminal-wins, same as Finish).
func TestStoreAdopt(t *testing.T) {
	forEachStore(t, func(t *testing.T, s service.Store) {
		// Unknown ID: Adopt inserts where Finish would error.
		if err := s.Adopt(doneRec("foreign", "fkey", storeEpoch)); err != nil {
			t.Fatalf("adopt of an unknown ID: %v", err)
		}
		got, ok := s.Get("foreign")
		if !ok || got.Status != service.JobDone || got.Result == nil {
			t.Fatalf("adopted record = %+v, %v", got, ok)
		}
		if rec, ok := s.ByKey("fkey"); !ok || rec.ID != "foreign" {
			t.Errorf("adopted key not indexed: %+v, %v", rec, ok)
		}

		// Pending entry: the adopted terminal state replaces it.
		if err := s.Put(queuedRec("j1", "k1")); err != nil {
			t.Fatal(err)
		}
		if err := s.Adopt(doneRec("j1", "k1", storeEpoch)); err != nil {
			t.Fatalf("adopt over pending: %v", err)
		}
		if got, _ := s.Get("j1"); got.Status != service.JobDone || got.Result.Makespan != 42 {
			t.Errorf("adopt did not replace the pending entry: %+v", got)
		}

		// Terminal entry: a conflicting adopted outcome is a silent no-op.
		late := queuedRec("j1", "k1")
		late.Status = service.JobFailed
		late.Error = &service.ErrorBody{Code: service.CodeScheduleFailed, Message: "divergent"}
		late.DoneAt = storeEpoch.Add(time.Hour)
		if err := s.Adopt(late); err != nil {
			t.Fatalf("adopt over terminal errored: %v", err)
		}
		if got, _ := s.Get("j1"); got.Status != service.JobDone || got.Result == nil {
			t.Errorf("adopt displaced an existing terminal state: %+v", got)
		}

		// A pending adopted record is legal too (owner replicating its
		// backlog): it lands and stays readable.
		if err := s.Adopt(queuedRec("j2", "")); err != nil {
			t.Fatalf("adopt of a pending record: %v", err)
		}
		if got, ok := s.Get("j2"); !ok || got.Status != service.JobQueued {
			t.Errorf("pending adopt = %+v, %v", got, ok)
		}
	})
}

// TestStoreAdoptSurvivesRestart pins that WAL-backed adoption is
// durable: an adopted record must replay after reopen exactly like a
// Put/Finish pair would.
func TestStoreAdoptSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	w, err := service.OpenWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Adopt(doneRec("foreign", "fkey", storeEpoch)); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	w2, err := service.OpenWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	got, ok := w2.Get("foreign")
	if !ok || got.Status != service.JobDone || got.Result == nil || got.Result.Makespan != 42 {
		t.Fatalf("adopted record lost across restart: %+v, %v", got, ok)
	}
	if rec, ok := w2.ByKey("fkey"); !ok || rec.ID != "foreign" {
		t.Errorf("adopted key lost across restart: %+v, %v", rec, ok)
	}
}
