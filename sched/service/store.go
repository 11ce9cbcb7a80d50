package service

import (
	"encoding/json"
	"fmt"
	"sync"
	"time"
)

// RecordKind distinguishes how a stored job is recomputed after a
// restart: a plain scheduling job re-runs its request document, a
// reschedule job re-derives its source result through its lineage and
// re-applies its delta.
type RecordKind string

const (
	KindSchedule   RecordKind = "schedule"
	KindReschedule RecordKind = "reschedule"
)

// Record is the persistent form of one asynchronous job — everything a
// restarted server needs to serve its result again or, for a job that
// never finished, to re-run it: the original request (KindSchedule) or
// the source-job ID plus delta document (KindReschedule). Every
// registered scheduler is deterministic, so a record doubles as a
// recipe: replaying it reproduces the exact schedule bytes the
// interrupted run would have produced.
type Record struct {
	ID     string     `json:"id"`
	Kind   RecordKind `json:"kind"`
	Algo   string     `json:"algo"`
	Status JobStatus  `json:"status"`
	// Key is the idempotency key the job was accepted under, if any.
	Key string `json:"idempotency_key,omitempty"`
	// Request is the original request (KindSchedule), held by reference:
	// the server points a request's graph, system and topology documents
	// at its compile cache's copies, so every job of one problem shares
	// them. Treat it as immutable. It encodes to the same JSON as the
	// request document it stands for. Records loaded from a WAL or
	// received from a replica hold their own decoded copies.
	Request *ScheduleRequest `json:"request,omitempty"`
	// Delta, Seed and SourceID are the reschedule lineage
	// (KindReschedule): the delta document applied to SourceID's result
	// under the given tie-break seed.
	Delta    json.RawMessage `json:"delta,omitempty"`
	Seed     int64           `json:"seed,omitempty"`
	SourceID string          `json:"source_id,omitempty"`
	// Result and Error carry the terminal outcome, set by Finish.
	Result *ScheduleResponse `json:"result,omitempty"`
	Error  *ErrorBody        `json:"error,omitempty"`

	CreatedAt time.Time `json:"created_at"`
	DoneAt    time.Time `json:"done_at,omitzero"`
}

// clone returns a shallow copy. Request, Result, Error and the raw
// documents are treated as immutable once set, so sharing them across
// copies is safe.
func (r *Record) clone() *Record {
	c := *r
	return &c
}

// request returns a copy of the stored request to compile: compiling
// repoints a request's documents, and a stored record is never written.
func (r *Record) request() *ScheduleRequest {
	var req ScheduleRequest
	if r.Request != nil {
		req = *r.Request
	}
	return &req
}

// Store persists accepted asynchronous jobs. The server writes every
// async job through it — Put on accept, Finish on the terminal
// transition, Evict/Sweep on TTL expiry — and replays it on boot:
// terminal records stay retrievable through GET /v1/jobs/{id} and usable
// as reschedule sources, pending ones are recompiled and re-enqueued.
// MemStore keeps records for the process lifetime; WALStore survives
// restarts.
//
// A record's Request shares its documents with the server's compile
// cache and with other records, so a store keeps the pointer and never
// writes through it. Encoding a record gives the same JSON it always
// did; a store that decodes records back holds its own copies.
//
// Implementations must be safe for concurrent use, must return snapshot
// records that stay valid after eviction, and must keep the FIRST
// terminal state a record reaches — a second Finish of the same ID is a
// no-op. The conformance suite in store_conformance_test.go pins the
// exact contract; a new Store lands as one file plus a suite
// registration.
type Store interface {
	// Put inserts a newly accepted, non-terminal record and indexes its
	// idempotency key. Inserting an ID that already exists is an error.
	Put(rec *Record) error
	// Finish records rec's terminal transition. Finishing an unknown ID
	// or passing a non-terminal status is an error; finishing an
	// already-terminal record is a no-op (first terminal state wins).
	Finish(rec *Record) error
	// Adopt force-installs a record snapshot in any state — the
	// replication/reconciliation primitive. Unlike Put it tolerates an
	// existing entry, and unlike Finish it can insert unknown IDs; the
	// one invariant it keeps is terminal-state precedence: a record that
	// already reached a terminal state is never replaced (the first
	// terminal outcome wins, exactly as with Finish).
	Adopt(rec *Record) error
	// Get returns a snapshot of the record, false when absent.
	Get(id string) (*Record, bool)
	// ByKey resolves an idempotency key to its record's snapshot.
	ByKey(key string) (*Record, bool)
	// List snapshots every record, in no particular order.
	List() []*Record
	// Evict removes one record (any state), reporting whether it existed.
	Evict(id string) bool
	// Sweep evicts every terminal record whose DoneAt is at least ttl
	// before now and returns how many it removed. The clock arrives as an
	// argument so stores stay clockless (and tests can inject time).
	Sweep(now time.Time, ttl time.Duration) int
	// Len is the number of stored records (any state).
	Len() int
	// Close releases the store's resources. The store is unusable after.
	Close() error
}

// MemStore is the in-memory Store: records live exactly as long as the
// process. It is the default when Config.Store is nil, and the reference
// implementation whose index the WAL store reuses.
type MemStore struct {
	mu   sync.Mutex
	recs map[string]*Record
	keys map[string]string // idempotency key -> job ID
}

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore {
	return &MemStore{recs: make(map[string]*Record), keys: make(map[string]string)}
}

func (m *MemStore) Put(rec *Record) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.put(rec)
}

// put inserts without locking; WAL replay reuses it under its own lock.
func (m *MemStore) put(rec *Record) error {
	if _, ok := m.recs[rec.ID]; ok {
		return fmt.Errorf("service: store already has job %q", rec.ID)
	}
	m.load(rec)
	return nil
}

// load force-inserts a record snapshot, replacing any existing entry —
// the snapshot-restore primitive.
func (m *MemStore) load(rec *Record) {
	c := rec.clone()
	m.recs[c.ID] = c
	if c.Key != "" {
		m.keys[c.Key] = c.ID
	}
}

func (m *MemStore) Finish(rec *Record) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	_, err := m.finish(rec)
	return err
}

// finish applies a terminal transition, reporting whether it changed
// anything (false for the idempotent second finish).
func (m *MemStore) finish(rec *Record) (bool, error) {
	if !rec.Status.Terminal() {
		return false, fmt.Errorf("service: finish with non-terminal status %q for job %q", rec.Status, rec.ID)
	}
	cur, ok := m.recs[rec.ID]
	if !ok {
		return false, fmt.Errorf("service: finish of unknown job %q", rec.ID)
	}
	if cur.Status.Terminal() {
		return false, nil // first terminal state wins
	}
	m.recs[rec.ID] = rec.clone()
	return true, nil
}

func (m *MemStore) Adopt(rec *Record) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.adopt(rec)
	return nil
}

// adopt force-installs a snapshot under terminal-state precedence,
// reporting whether it changed anything (false when the stored record
// is already terminal).
func (m *MemStore) adopt(rec *Record) bool {
	if cur, ok := m.recs[rec.ID]; ok && cur.Status.Terminal() {
		return false
	}
	m.load(rec)
	return true
}

func (m *MemStore) Get(id string) (*Record, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	rec, ok := m.recs[id]
	if !ok {
		return nil, false
	}
	return rec.clone(), true
}

func (m *MemStore) ByKey(key string) (*Record, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	id, ok := m.keys[key]
	if !ok {
		return nil, false
	}
	rec, ok := m.recs[id]
	if !ok {
		return nil, false
	}
	return rec.clone(), true
}

func (m *MemStore) List() []*Record {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]*Record, 0, len(m.recs))
	for _, rec := range m.recs {
		out = append(out, rec.clone())
	}
	return out
}

func (m *MemStore) Evict(id string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.evict(id)
}

func (m *MemStore) evict(id string) bool {
	rec, ok := m.recs[id]
	if !ok {
		return false
	}
	delete(m.recs, id)
	if rec.Key != "" {
		delete(m.keys, rec.Key)
	}
	return true
}

func (m *MemStore) Sweep(now time.Time, ttl time.Duration) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.sweepLocked(now, ttl)
}

func (m *MemStore) sweepLocked(now time.Time, ttl time.Duration) int {
	if ttl <= 0 {
		return 0
	}
	n := 0
	for id, rec := range m.recs {
		if rec.Status.Terminal() && now.Sub(rec.DoneAt) >= ttl {
			m.evict(id)
			n++
		}
	}
	return n
}

func (m *MemStore) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.recs)
}

func (m *MemStore) Close() error { return nil }
