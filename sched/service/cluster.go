package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"
)

// ringPoints is how many virtual points each replica contributes to the
// hash ring. 64 keeps the ownership split within a few percent of even
// for small clusters without making ring construction noticeable.
const ringPoints = 64

// forwardedHeader marks a request that already crossed one replica hop.
// A forwarded request is always served locally — if the ring says it
// belongs elsewhere the two replicas disagree about membership, and
// bouncing it again would loop forever.
const forwardedHeader = "X-Schedd-Forwarded"

// nodeToken derives a replica's stable 8-hex identity from its
// advertised address. Job IDs embed it ("3aa01f2c.j17"), so any replica
// can route a job reference back to its owner without shared state.
func nodeToken(addr string) string {
	h := fnv.New32a()
	h.Write([]byte(addr))
	return fmt.Sprintf("%08x", h.Sum32())
}

type ringSlot struct {
	hash  uint64
	token string
}

// fmix64 is MurmurHash3's 64-bit finalizer. FNV-64a alone has weak
// avalanche for short inputs that differ only in trailing bytes — which
// is exactly what ring vpoint labels ("addr#0".."addr#63") and
// real-world sequential idempotency keys ("sweep-0", "sweep-1", ...)
// look like. Without the finalizer the vpoints of one node clump into a
// narrow band and whole key families collapse onto a single owner.
func fmix64(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// cluster is cluster mode: one replica's view of the replica tier and
// everything the replica does as a member of it. The full member list
// (self included) sits on a consistent-hash ring. Membership is
// configuration, not gossip — every replica is started with the same
// peer list, so all replicas compute identical rings and route without
// coordination. The cluster also owns the replica side-store, the
// failure detector with its failover hooks, the per-peer circuit
// breakers, and every request this node sends another member (hop).
//
// A single-node Server's cluster is nil. Each method the rest of the
// server calls is safe on a nil receiver and then does what a lone node
// does, so no handler branches on cluster mode.
type cluster struct {
	s         *Server // the server this replica runs; set by start
	self      string  // advertised address of this replica
	selfToken string
	addrs     map[string]string // token -> advertised address
	ring      []ringSlot        // sorted by hash
	client    *http.Client
	// replicas is Config.Replicas clamped to the member count: how many
	// copies of each record the tier holds, 1 with replication off.
	replicas int

	// side holds record copies streamed by other owners and detector
	// drives failover. Both exist with replication off too: the
	// side-store then stays empty, and the detector never runs, so it
	// never reports a peer dead.
	side     *replicaSet
	detector *detector

	// Per-peer circuit breakers guarding hops, created lazily per address
	// from Config's BreakerThreshold and BreakerCooldown.
	bmu      sync.Mutex
	breakers map[string]*breaker // addr -> breaker
}

// newCluster builds cfg's ring over Self plus Peers. It returns nil for
// a single node (no Self), and an error when two member addresses hash
// to one node token. HTTPClient nil means http.DefaultClient.
func newCluster(cfg *Config) (*cluster, error) {
	if cfg.Self == "" {
		return nil, nil
	}
	client := cfg.HTTPClient
	if client == nil {
		client = http.DefaultClient
	}
	c := &cluster{
		self:      cfg.Self,
		selfToken: nodeToken(cfg.Self),
		addrs:     make(map[string]string),
		client:    client,
		side:      newReplicaSet(),
		breakers:  make(map[string]*breaker),
	}
	for _, addr := range append([]string{cfg.Self}, cfg.Peers...) {
		addr = strings.TrimSpace(addr)
		if addr == "" {
			continue
		}
		token := nodeToken(addr)
		if prev, ok := c.addrs[token]; ok {
			if prev == addr {
				continue // duplicate listing of the same member
			}
			return nil, fmt.Errorf("service: node token collision: %q and %q both hash to %s", prev, addr, token)
		}
		c.addrs[token] = addr
		for i := 0; i < ringPoints; i++ {
			h := fnv.New64a()
			fmt.Fprintf(h, "%s#%d", addr, i)
			c.ring = append(c.ring, ringSlot{hash: fmix64(h.Sum64()), token: token})
		}
	}
	sort.Slice(c.ring, func(i, j int) bool { return c.ring[i].hash < c.ring[j].hash })
	c.replicas = min(cfg.Replicas, c.size())
	c.detector = newDetector(c)
	return c, nil
}

// start binds the cluster to its server: job IDs take this node's
// token, and with replication on the failure detector starts probing.
func (c *cluster) start(s *Server) {
	if c == nil {
		return
	}
	c.s = s
	s.jobs.prefix = c.selfToken + "."
	if c.replicated() {
		go c.detector.run()
	}
}

// replicated reports whether replication and failover are on.
func (c *cluster) replicated() bool { return c.replicas > 1 }

// close stops the failure detector.
func (c *cluster) close() {
	if c == nil {
		return
	}
	c.detector.close()
}

// size returns the number of members, self included.
func (c *cluster) size() int { return len(c.addrs) }

// ownerToken returns the token of the replica owning key: the first ring
// point at or after the key's hash, wrapping around.
func (c *cluster) ownerToken(key string) string {
	h := fnv.New64a()
	h.Write([]byte(key))
	target := fmix64(h.Sum64())
	i := sort.Search(len(c.ring), func(i int) bool { return c.ring[i].hash >= target })
	if i == len(c.ring) {
		i = 0
	}
	return c.ring[i].token
}

// addrOf resolves a member token to its advertised address.
func (c *cluster) addrOf(token string) (string, bool) {
	addr, ok := c.addrs[token]
	return addr, ok
}

// jobToken extracts the owner token a job ID carries ("token.j17" →
// "token"). IDs without one ("j17", single-node) are always local.
func jobToken(id string) string {
	if i := strings.IndexByte(id, '.'); i > 0 {
		return id[:i]
	}
	return ""
}

// breakerFor returns addr's circuit breaker, creating it on first use.
func (c *cluster) breakerFor(addr string) *breaker {
	c.bmu.Lock()
	defer c.bmu.Unlock()
	b, ok := c.breakers[addr]
	if !ok {
		b = newBreaker(c.s.cfg.BreakerThreshold, c.s.cfg.BreakerCooldown)
		c.breakers[addr] = b
	}
	return b
}

// successorsOf returns up to n distinct member tokens after token in
// sorted-token order, wrapping around — the replication targets of the
// member owning token, and (filtered by liveness) the failover order
// when it dies.
func (c *cluster) successorsOf(token string, n int) []string {
	tokens := c.tokens()
	i := sort.SearchStrings(tokens, token)
	if i == len(tokens) {
		i = 0
	}
	var out []string
	for k := 1; k < len(tokens) && len(out) < n; k++ {
		out = append(out, tokens[(i+k)%len(tokens)])
	}
	return out
}

// tokens returns every member token, sorted.
func (c *cluster) tokens() []string {
	out := make([]string, 0, len(c.addrs))
	for t := range c.addrs {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}

// ---- routing ----

// route resolves the address to forward a request for owner token to
// (a job ID's token, see jobToken), ok false when it is served here: on
// a single node, for a token naming no other replica, and for a request
// that already crossed a hop (a forwarded request is served where it
// lands — two replicas disagreeing about membership must not bounce it
// forever). When the owner is dead (only ever with failover on), the
// request reroutes to the owner's first live ring successor — the
// replica that adopted its jobs — or stays local when that successor is
// this node.
func (c *cluster) route(r *http.Request, token string) (string, bool) {
	if c == nil || token == "" || token == c.selfToken || r.Header.Get(forwardedHeader) != "" {
		return "", false
	}
	if c.detector.dead(token) {
		succ := c.firstLiveSuccessor(token)
		if succ == "" || succ == c.selfToken {
			return "", false
		}
		return c.addrOf(succ)
	}
	return c.addrOf(token)
}

// routeKey is route for a keyed submission, which belongs to the key's
// hash owner. A keyless one is served here.
func (c *cluster) routeKey(r *http.Request, key string) (string, bool) {
	if c == nil || key == "" {
		return "", false
	}
	return c.route(r, c.ownerToken(key))
}

// firstLiveSuccessor returns the member that takes over for a dead
// owner: the first of its ring successors the detector does not
// consider dead (this node is always live from its own perspective).
// Empty when every other member is dead too.
func (c *cluster) firstLiveSuccessor(token string) string {
	for _, succ := range c.successorsOf(token, c.size()-1) {
		if succ == c.selfToken || !c.detector.dead(succ) {
			return succ
		}
	}
	return ""
}

// ownerUnreachable is the answer for a job this node cannot find whose
// ID names another member: its owner is unreachable and no replica
// holds a copy, a 502 the client may retry once the owner returns. Nil
// when the ID names no other member, which makes the job unknown.
func (c *cluster) ownerUnreachable(id string) *ErrorBody {
	if c == nil {
		return nil
	}
	token := jobToken(id)
	if _, member := c.addrOf(token); !member || token == c.selfToken {
		return nil
	}
	return &ErrorBody{Code: CodeUpstreamUnavailable, Message: fmt.Sprintf("job %q's owner %s is unreachable and no replica holds it", id, token)}
}

// ---- hops ----

// errBreakerOpen is what hop returns when the peer's circuit breaker
// refuses the attempt outright.
var errBreakerOpen = errors.New("circuit breaker open")

// buildError is a request hop could not build (an unparseable member
// address); relay words it apart from an owner it could not reach.
type buildError struct{ err error }

func (e buildError) Error() string { return e.err.Error() }

// hop sends one request to the member at addr. It is the one place a
// request leaves this node for another replica; only health probes
// bypass it (see probe). from is the inbound request the hop serves (a
// relay or a sub-batch, counted in forwards_total once answered), nil
// when this node originates it (replication, reconciliation): from
// bounds the hop's context, and an SSE relay carries its Last-Event-ID.
//
// hop marks the request forwarded, types a body as JSON and bounds the
// attempt by ForwardTimeout, except when relaying an SSE stream, which
// legitimately outlives any fixed bound. The attempt goes through
// addr's circuit breaker: an open breaker refuses it without touching
// the network (a dead peer costs one bounded probe per cooldown instead
// of a connect timeout per request), failures count toward tripping it,
// and any success closes it. Closing the response body releases the
// attempt's timeout.
func (c *cluster) hop(from *http.Request, method, addr, uri string, body []byte) (*http.Response, error) {
	ctx, cancel := context.Background(), context.CancelFunc(func() {})
	if from != nil {
		ctx = from.Context()
	}
	stream := from != nil && strings.HasSuffix(from.URL.Path, "/events")
	if !stream {
		ctx, cancel = context.WithTimeout(ctx, c.s.cfg.ForwardTimeout)
	}
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, "http://"+addr+uri, rd)
	if err != nil {
		cancel()
		return nil, buildError{err}
	}
	req.Header.Set(forwardedHeader, c.self)
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if stream {
		if lastID := from.Header.Get("Last-Event-ID"); lastID != "" {
			req.Header.Set("Last-Event-ID", lastID)
		}
	}
	br := c.breakerFor(addr)
	if !br.allow(time.Now()) {
		cancel()
		c.s.metrics.BreakerShortCircuits.Add(1)
		return nil, errBreakerOpen
	}
	resp, err := c.client.Do(req)
	if err != nil {
		cancel()
		c.s.metrics.ForwardErrors.Add(1)
		if br.failure(time.Now()) {
			c.s.metrics.BreakerOpens.Add(1)
		}
		return nil, err
	}
	br.success()
	if from != nil {
		c.s.metrics.Forwards.Add(1)
	}
	resp.Body = cancelOnClose{resp.Body, cancel}
	return resp, nil
}

// cancelOnClose is a hop's response body: closing it also releases the
// hop's context.
type cancelOnClose struct {
	io.ReadCloser
	cancel context.CancelFunc
}

func (b cancelOnClose) Close() error {
	err := b.ReadCloser.Close()
	b.cancel()
	return err
}

// relay forwards the request to addr and streams the response back,
// flushing per chunk so SSE survives the hop. body nil means a bodyless
// method.
func (c *cluster) relay(w http.ResponseWriter, r *http.Request, addr string, body []byte) {
	resp, err := c.hop(r, r.Method, addr, r.URL.RequestURI(), body)
	if err != nil {
		msg := fmt.Sprintf("job owner %s unreachable: %v", addr, err)
		if be, ok := err.(buildError); ok {
			msg = fmt.Sprintf("forward to %s: %v", addr, be.err)
		}
		writeError(w, &ErrorBody{Code: CodeUpstreamUnavailable, Message: msg})
		return
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	w.WriteHeader(resp.StatusCode)
	flushCopy(w, resp.Body)
}

// batchForward ships the indexed jobs to their owner as a sub-batch and
// returns its items. An owner that answers with a top-level error
// (draining, body too large, ...) has that error propagated to each
// item; only an owner we could not get an answer from fails them with
// 502 upstream_unavailable.
func (c *cluster) batchForward(r *http.Request, addr string, jobs []ScheduleRequest, idxs []int) []BatchItem {
	sub := BatchRequest{Jobs: make([]ScheduleRequest, len(idxs))}
	for k, i := range idxs {
		sub.Jobs[k] = jobs[i]
	}
	each := func(e *ErrorBody) []BatchItem {
		items := make([]BatchItem, len(idxs))
		for k := range items {
			items[k] = BatchItem{Error: e}
		}
		return items
	}
	fail := func(err error) []BatchItem {
		return each(&ErrorBody{Code: CodeUpstreamUnavailable, Message: fmt.Sprintf("job owner %s unreachable: %v", addr, err)})
	}
	resp, err := c.hop(r, http.MethodPost, addr, "/v1/batch", sub.wireDoc())
	if err != nil {
		return fail(err)
	}
	defer resp.Body.Close()
	respData, err := io.ReadAll(resp.Body)
	if err != nil {
		return fail(err)
	}
	if resp.StatusCode/100 != 2 {
		// The owner was reachable and answered with a typed error (draining,
		// body too large, ...): pass its real code through to every item
		// instead of mislabeling it "unreachable".
		var env errorEnvelope
		if err := json.Unmarshal(respData, &env); err == nil && env.Error != nil {
			return each(env.Error)
		}
		return fail(fmt.Errorf("owner answered http %d with no error envelope", resp.StatusCode))
	}
	var out BatchResponse
	if err := json.Unmarshal(respData, &out); err != nil || len(out.Jobs) != len(idxs) {
		return fail(fmt.Errorf("malformed sub-batch response (http %d)", resp.StatusCode))
	}
	return out.Jobs
}

// ---- replication and failover ----

// replicateRequest is the body of POST /v1/internal/replicate: an owner
// streaming record snapshots to its ring successors, or (Reconcile) a
// successor pushing outcomes back to a returned owner.
type replicateRequest struct {
	Origin    string    `json:"origin"` // sender's node token
	Reconcile bool      `json:"reconcile,omitempty"`
	Records   []*Record `json:"records"`
}

// handleReplicate receives replication and reconciliation pushes from
// peers. Replication lands in the replica side-store; reconciliation
// folds into this node's own store under first-terminal-wins.
func (c *cluster) handleReplicate(w http.ResponseWriter, r *http.Request) {
	if c == nil {
		writeError(w, &ErrorBody{Code: CodeBadRequest, Message: "replication requires cluster mode"})
		return
	}
	var req replicateRequest
	if errBody := c.s.decode(w, r, &req); errBody != nil {
		writeError(w, errBody)
		return
	}
	if req.Reconcile {
		c.reconcile(req.Records)
	} else {
		if !c.replicated() {
			writeError(w, &ErrorBody{Code: CodeBadRequest, Message: "replication disabled on this replica (-replicas 1)"})
			return
		}
		c.side.store(req.Origin, req.Records)
	}
	writeJSON(w, http.StatusOK, map[string]int{"records": len(req.Records)})
}

// reconcile folds records pushed by a peer into this node's own store:
// terminal outcomes a successor computed while this node was dead, and
// keyed jobs a successor accepted on its behalf. Adopt keeps the first
// terminal state, so anything this node already finished — including a
// WAL-replayed run that raced the push — is untouched, and the replayed
// run's bytes are identical to the adopted ones anyway.
func (c *cluster) reconcile(recs []*Record) {
	for _, rec := range recs {
		if jobToken(rec.ID) == c.selfToken {
			c.s.jobs.bump(idSeq(rec.ID))
		}
		if err := c.s.rec.Adopt(rec); err != nil {
			c.s.metrics.StoreErrors.Add(1)
			continue
		}
		c.s.metrics.Reconciles.Add(1)
	}
}

// replica returns this node's copy of a record replicated by another
// owner.
func (c *cluster) replica(id string) (*Record, bool) {
	if c == nil {
		return nil, false
	}
	return c.side.get(id)
}

// replicaByKey resolves an idempotency key to a replicated record.
func (c *cluster) replicaByKey(key string) (*Record, bool) {
	if c == nil {
		return nil, false
	}
	return c.side.byKey(key)
}

// sweep evicts expired replicated records, under the Store's TTL policy.
func (c *cluster) sweep(now time.Time, ttl time.Duration) {
	if c == nil {
		return
	}
	c.side.sweep(now, ttl)
}

// replicateJob streams one accepted job's persistence record to this
// node's ring successors — called after enqueue and BEFORE the 202 is
// written, so a SIGKILL right after the ack can never leave the record
// without a surviving copy. Not under keyMu: replication is network
// I/O, and serializing all keyed intake behind a slow successor would
// be worse than the benign double-send a racing duplicate could cause.
func (c *cluster) replicateJob(j *job) {
	if c == nil || !c.replicated() {
		return
	}
	c.replicateRecord(j.record())
}

// finished passes a persisted job's terminal record on. It replicates
// too, so successors can serve (not recompute) finished jobs after this
// node dies; and a job accepted here under a dead owner's key flows
// back to that owner once it returns.
func (c *cluster) finished(rc *Record) {
	if c == nil || !c.replicated() {
		return
	}
	c.replicateRecord(rc)
	c.reconcileForeignKey(rc)
}

// replicateRecord pushes a record snapshot to every ring successor.
// Best-effort per target: a successor that cannot be reached costs a
// counter (replication_errors_total), not the acceptance — the local
// store already holds the record.
func (c *cluster) replicateRecord(rec *Record) {
	data, err := json.Marshal(&replicateRequest{Origin: c.selfToken, Records: []*Record{rec}})
	if err != nil {
		c.s.metrics.ReplicationErrors.Add(1)
		return
	}
	for _, token := range c.successorsOf(c.selfToken, c.replicas-1) {
		if c.sendReplicate(c.addrs[token], data) {
			c.s.metrics.ReplicatedJobs.Add(1)
		} else {
			c.s.metrics.ReplicationErrors.Add(1)
		}
	}
}

// sendReplicate posts one replication payload to addr, reporting
// whether the peer took it.
func (c *cluster) sendReplicate(addr string, data []byte) bool {
	resp, err := c.hop(nil, http.MethodPost, addr, "/v1/internal/replicate", data)
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body) //nolint:errcheck // draining for connection reuse
	return resp.StatusCode/100 == 2
}

// onPeerDead is the detector's death hook: when this node is the dead
// owner's first live successor it fails over, re-enqueueing every
// replicated pending job under its original ID. Adopted jobs persist
// nothing here: their outcome goes to the replica side-store — the
// records belong to the dead owner's store, not this node's — so a
// replayed run on the recovered owner and the adopted run here converge
// on byte-identical results via reconciliation.
func (c *cluster) onPeerDead(token string) {
	if c.firstLiveSuccessor(token) != c.selfToken {
		return
	}
	s := c.s
	s.metrics.Failovers.Add(1)
	for _, rec := range c.side.pending(token) {
		if _, live := s.jobs.get(rec.ID, s.cfg.Now(), s.cfg.JobTTL); live {
			continue // already adopted by an earlier death of the same owner
		}
		if s.readmit(rec, c.side.finish) {
			s.metrics.AdoptedJobs.Add(1)
		}
	}
}

// onPeerRecovered is the detector's recovery hook: push everything this
// node holds on the returned owner's behalf — terminal outcomes of its
// adopted jobs, plus terminal jobs accepted here under keys the owner's
// ring range covers — so its store converges with what happened while
// it was gone. The push runs in a goroutine (reconciliation must not
// block probing) and is idempotent end to end.
func (c *cluster) onPeerRecovered(token string) {
	recs := c.side.terminalRecords(token)
	for _, rec := range c.s.rec.List() {
		if rec.Status.Terminal() && rec.Key != "" && c.ownerToken(rec.Key) == token {
			recs = append(recs, rec)
		}
	}
	if len(recs) > 0 {
		go c.sendReconcile(c.addrs[token], recs)
	}
}

// reconcileForeignKey pushes a finished keyed record to the key's hash
// owner when that owner is another live member — the job was accepted
// here on a dead owner's behalf during failover, and without the push
// the returned owner would re-accept the key as brand new.
func (c *cluster) reconcileForeignKey(rc *Record) {
	if rc.Key == "" {
		return
	}
	owner := c.ownerToken(rc.Key)
	if owner == c.selfToken || c.detector.dead(owner) {
		return // dead owners get the push from onPeerRecovered instead
	}
	go c.sendReconcile(c.addrs[owner], []*Record{rc})
}

func (c *cluster) sendReconcile(addr string, recs []*Record) {
	data, err := json.Marshal(&replicateRequest{Origin: c.selfToken, Reconcile: true, Records: recs})
	if err != nil {
		return
	}
	c.sendReplicate(addr, data)
}

// ---- membership view ----

// view reports the configured member set with a live health probe of
// every peer; jobs is this node's live job count. A single node (nil c)
// answers with a synthetic one-row view, so clients need not
// special-case topology.
func (c *cluster) view(ctx context.Context, jobs int) *ClusterView {
	if c == nil {
		return &ClusterView{
			Self:  "local",
			Nodes: []NodeView{{Token: "local", Self: true, Healthy: true, Jobs: jobs}},
		}
	}
	tokens := c.tokens()
	view := &ClusterView{Self: c.selfToken, Nodes: make([]NodeView, len(tokens))}
	var wg sync.WaitGroup
	for i, token := range tokens {
		node := NodeView{Token: token, Addr: c.addrs[token]}
		if c.replicated() {
			node.State = c.detector.stateOf(token)
		}
		if token == c.selfToken {
			node.Self = true
			node.Healthy = !c.s.draining.Load()
			node.Jobs = jobs
			view.Nodes[i] = node
			continue
		}
		// Probes fan out concurrently, each capped at ProbeTimeout, so one
		// slow or dead peer delays the view by at most one timeout instead
		// of stalling the whole walk.
		wg.Add(1)
		go func(i int, node NodeView) {
			defer wg.Done()
			node.Healthy = c.probe(ctx, node.Addr)
			view.Nodes[i] = node
		}(i, node)
	}
	wg.Wait()
	return view
}

// probe checks a peer's /healthz within ProbeTimeout. Probes are the one
// request that does not go through hop: they bypass the circuit
// breakers on purpose, since the detector is how a dead verdict gets
// revisited and must keep looking at peers nobody else talks to.
func (c *cluster) probe(ctx context.Context, addr string) bool {
	ctx, cancel := context.WithTimeout(ctx, c.s.cfg.ProbeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+addr+"/healthz", nil)
	if err != nil {
		return false
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return false
	}
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}
