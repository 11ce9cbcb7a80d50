package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"sync"

	"repro/sched"
	"repro/sched/gen"
	"repro/sched/graph"
	"repro/sched/system"
)

// hasDoc reports whether a raw interchange document is actually present.
// An omitted field and an explicit JSON null both count as missing —
// encoders that lack omitempty on a document field (including this
// package's own ScheduleRequest.Graph) serialize absence as "null".
func hasDoc(doc json.RawMessage) bool {
	trimmed := bytes.TrimSpace(doc)
	return len(trimmed) > 0 && !bytes.Equal(trimmed, []byte("null"))
}

// ScheduleRequest is the wire form of one scheduling problem, built
// entirely from the PR-4 public interchange formats: the graph document
// is graph.FromJSON's schema, the system document system.SystemFromJSON's
// and the topology document system.FromJSON's (a bare network).
//
// Exactly one of System, Topology and Topo must be present. A bare
// Topology (or a generated Topo) yields a homogeneous system unless Het
// asks for random min-normalized factors (the paper's heterogeneity
// model, seeded for reproducibility).
type ScheduleRequest struct {
	// Algo selects the algorithm by registry name or alias,
	// case-insensitively. Empty means the server's default ("bsa").
	Algo string `json:"algo,omitempty"`
	// Graph is the task graph interchange document (required).
	Graph json.RawMessage `json:"graph"`
	// System is a full heterogeneous system document: network plus
	// execution/communication factor matrices.
	System json.RawMessage `json:"system,omitempty"`
	// Topology is a bare network document; factors default to 1.
	Topology json.RawMessage `json:"topology,omitempty"`
	// Topo asks the server to generate a named topology family instead
	// of shipping a network document.
	Topo *TopoSpecWire `json:"topo,omitempty"`
	// Het draws random min-normalized factors over Topology or Topo.
	Het *HetSpec `json:"het,omitempty"`
	// Seed drives the algorithm's tie-breaking RNG.
	Seed int64 `json:"seed,omitempty"`
	// TimeoutMS bounds the run: the server maps it to a context deadline
	// covering queue wait plus scheduling. 0 means no per-request bound.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// IdempotencyKey deduplicates asynchronous submissions: resubmitting
	// any request under a key the server already accepted returns the
	// original job (HTTP 200 instead of 202) rather than scheduling again.
	// Keys live exactly as long as their job — once it TTL-expires, the
	// key is free again. Ignored on synchronous /v1/schedule calls.
	IdempotencyKey string `json:"idempotency_key,omitempty"`
}

// wireDoc renders the request as its persistence document and its
// request body — equivalent to json.Marshal's output — without
// reflection. The graph and system documents are appended verbatim:
// encoding/json would otherwise validate and recompact every byte of
// them per job, which dominates batch admission (a 64-job batch
// recompacts the shared graph document 64 times over). The server's
// strict wire decode validates their syntax on arrival, and the
// persisted document only ever feeds json.Unmarshal back into a
// ScheduleRequest on replay.
func (req *ScheduleRequest) wireDoc() json.RawMessage {
	return req.appendWire(make([]byte, 0, req.wireSize()))
}

// wireSize is the capacity wireDoc reserves: the documents and the two
// strings, plus 384 bytes for the member names and the small members.
// Persisted jobs keep their document for the whole job TTL, and a
// buffer that append had to regrow would stay about a quarter too
// large.
func (req *ScheduleRequest) wireSize() int {
	return 384 + len(req.Algo) + len(req.IdempotencyKey) + len(req.Graph) + len(req.System) + len(req.Topology)
}

// appendWire appends the request's wire document to buf.
func (req *ScheduleRequest) appendWire(buf []byte) []byte {
	o := jsonObject{buf: append(buf, '{')}
	if req.Algo != "" {
		o.value("algo", req.Algo)
	}
	if len(req.Graph) == 0 {
		o.raw("graph", []byte("null")) // no omitempty: absence round-trips as null
	} else {
		o.raw("graph", req.Graph)
	}
	if len(req.System) > 0 {
		o.raw("system", req.System)
	}
	if len(req.Topology) > 0 {
		o.raw("topology", req.Topology)
	}
	if req.Topo != nil {
		o.value("topo", req.Topo)
	}
	if req.Het != nil {
		o.value("het", req.Het)
	}
	if req.Seed != 0 {
		o.key("seed")
		o.buf = strconv.AppendInt(o.buf, req.Seed, 10)
	}
	if req.TimeoutMS != 0 {
		o.key("timeout_ms")
		o.buf = strconv.AppendInt(o.buf, req.TimeoutMS, 10)
	}
	if req.IdempotencyKey != "" {
		o.value("idempotency_key", req.IdempotencyKey)
	}
	return append(o.buf, '}')
}

// jsonObject appends the members of a JSON object being rendered.
type jsonObject struct {
	buf     []byte
	members int
}

func (o *jsonObject) key(name string) {
	if o.members > 0 {
		o.buf = append(o.buf, ',')
	}
	o.members++
	o.buf = append(o.buf, '"')
	o.buf = append(o.buf, name...)
	o.buf = append(o.buf, '"', ':')
}

// raw appends a member whose value is a JSON document, verbatim.
func (o *jsonObject) raw(name string, doc []byte) {
	o.key(name)
	o.buf = append(o.buf, doc...)
}

// value appends a member holding a string or a plain struct of
// strings and numbers, which json.Marshal cannot fail on.
func (o *jsonObject) value(name string, v any) {
	o.key(name)
	data, _ := json.Marshal(v)
	o.buf = append(o.buf, data...)
}

// TopoSpecWire is the wire form of a generated topology: the server
// builds the named sched/gen family instead of parsing a shipped
// network document. Equal specs always materialize identical networks,
// so replicas and WAL replay reconstruct the same system.
type TopoSpecWire struct {
	// Kind is the family name (gen.TopoKindByName, case-insensitive):
	// ring, hypercube, clique, random, mesh, star, tree, line, torus,
	// fattree, hierarchical.
	Kind string `json:"kind"`
	// Procs is the processor count (required).
	Procs int `json:"procs"`
	// Rows is the row count for mesh/torus (0 picks the most square).
	Rows int `json:"rows,omitempty"`
	// MinDeg/MaxDeg bound degrees for the random family.
	MinDeg int `json:"min_deg,omitempty"`
	MaxDeg int `json:"max_deg,omitempty"`
	// Spines is the spine count for fattree (0 picks procs/4).
	Spines int `json:"spines,omitempty"`
	// Groups is the group count for hierarchical (0 picks the most
	// square divisor).
	Groups int `json:"groups,omitempty"`
	// Seed drives the random family's generator; 0 means 1.
	Seed int64 `json:"seed,omitempty"`
}

// HetSpec mirrors bsasched's -het flag: factors drawn uniformly from
// [Lo, Hi] and min-normalized per row, from the given seed.
type HetSpec struct {
	Lo   float64 `json:"lo"`
	Hi   float64 `json:"hi"`
	Seed int64   `json:"seed,omitempty"`
}

// RescheduleRequest is the wire form of POST /v1/jobs/{id}/reschedule:
// a quasi-dynamic delta applied to a finished job's schedule. The delta
// document is sched.DeltaFromJSON's schema (the Delta interchange
// format).
type RescheduleRequest struct {
	// Delta is the problem delta document (required; "{}" is the empty
	// delta, which just reconverges the schedule).
	Delta json.RawMessage `json:"delta"`
	// Seed drives the reconvergence tie-breaking RNG.
	Seed int64 `json:"seed,omitempty"`
	// TimeoutMS bounds the run, queue wait included. 0 means no bound.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// ScheduleResponse is the wire form of a sched.Result: the schedule
// document is sched.Schedule's MarshalJSON output, byte-identical to what
// the library (and cmd/bsasched -json) produces for the same problem.
type ScheduleResponse struct {
	Algorithm string             `json:"algorithm"`
	Makespan  float64            `json:"makespan"`
	ElapsedNS int64              `json:"elapsed_ns"`
	Summary   string             `json:"summary"`
	Stats     map[string]float64 `json:"stats,omitempty"`
	Schedule  json.RawMessage    `json:"schedule"`
}

// JobStatus is the lifecycle state of an asynchronous job.
type JobStatus string

const (
	JobQueued  JobStatus = "queued"
	JobRunning JobStatus = "running"
	JobDone    JobStatus = "done"
	JobFailed  JobStatus = "failed"
)

// Terminal reports whether the status is final.
func (s JobStatus) Terminal() bool { return s == JobDone || s == JobFailed }

// JobView is the wire form of one asynchronous job.
type JobView struct {
	ID     string    `json:"id"`
	Status JobStatus `json:"status"`
	Algo   string    `json:"algo"`
	// Source is the job this one was rescheduled from, when any.
	Source string `json:"source,omitempty"`
	// Result is set once Status is "done".
	Result *ScheduleResponse `json:"result,omitempty"`
	// Error is set once Status is "failed".
	Error *ErrorBody `json:"error,omitempty"`
}

// viewOfRecord renders a record's wire form. Records are snapshots, so
// the Result/Error pointers can be shared directly.
func viewOfRecord(rec *Record) *JobView {
	return &JobView{
		ID:     rec.ID,
		Status: rec.Status,
		Algo:   rec.Algo,
		Source: rec.SourceID,
		Result: rec.Result,
		Error:  rec.Error,
	}
}

// BatchRequest is the wire form of POST /v1/batch: many scheduling
// problems in one round trip. The top-level Graph / System / Topology /
// Topo / Het act as defaults — a job with no graph inherits Graph, and
// a job with no system, topology or topo inherits the
// System/Topology/Topo/Het group — so a parameter sweep over one
// problem ships the documents once. Like every submission, a job whose
// documents the server has compiled before, in this batch or any
// earlier request, reuses the compiled problem instead of parsing and
// validating them again.
type BatchRequest struct {
	Graph    json.RawMessage `json:"graph,omitempty"`
	System   json.RawMessage `json:"system,omitempty"`
	Topology json.RawMessage `json:"topology,omitempty"`
	Topo     *TopoSpecWire   `json:"topo,omitempty"`
	Het      *HetSpec        `json:"het,omitempty"`
	// Jobs are the individual submissions; each is accepted (or rejected)
	// independently.
	Jobs []ScheduleRequest `json:"jobs"`
}

// wireDoc renders the batch as its request body — equivalent to
// json.Marshal's output — with every document appended verbatim, as
// ScheduleRequest.wireDoc does.
func (b *BatchRequest) wireDoc() []byte {
	size := 384 + len(b.Graph) + len(b.System) + len(b.Topology)
	for i := range b.Jobs {
		size += b.Jobs[i].wireSize()
	}
	o := jsonObject{buf: append(make([]byte, 0, size), '{')}
	if len(b.Graph) > 0 {
		o.raw("graph", b.Graph)
	}
	if len(b.System) > 0 {
		o.raw("system", b.System)
	}
	if len(b.Topology) > 0 {
		o.raw("topology", b.Topology)
	}
	if b.Topo != nil {
		o.value("topo", b.Topo)
	}
	if b.Het != nil {
		o.value("het", b.Het)
	}
	o.key("jobs")
	if b.Jobs == nil {
		o.buf = append(o.buf, "null"...)
	} else {
		o.buf = append(o.buf, '[')
		for i := range b.Jobs {
			if i > 0 {
				o.buf = append(o.buf, ',')
			}
			o.buf = b.Jobs[i].appendWire(o.buf)
		}
		o.buf = append(o.buf, ']')
	}
	return append(o.buf, '}')
}

// BatchItem is the per-job outcome inside a BatchResponse: exactly one
// of Job (accepted, same view as POST /v1/jobs) and Error (rejected —
// one bad job does not fail its batch) is set.
type BatchItem struct {
	Job   *JobView   `json:"job,omitempty"`
	Error *ErrorBody `json:"error,omitempty"`
}

// BatchResponse is the wire form of a batch submission: one item per
// requested job, in request order.
type BatchResponse struct {
	Jobs []BatchItem `json:"jobs"`
}

// NodeView describes one replica in GET /v1/cluster.
type NodeView struct {
	Token string `json:"token"`
	Addr  string `json:"addr"`
	Self  bool   `json:"self,omitempty"`
	// Healthy is the result of probing the node's /healthz (always true
	// for the answering node itself).
	Healthy bool `json:"healthy"`
	// State is the answering node's failure-detector verdict on this
	// member: "alive", "suspect" or "dead". Empty when the answering
	// node runs no detector (single-node, or replication disabled).
	State string `json:"state,omitempty"`
	// Jobs is the answering node's live job count; peers report their own
	// through their own /v1/cluster.
	Jobs int `json:"jobs,omitempty"`
}

// ClusterView is the membership/health document of GET /v1/cluster.
type ClusterView struct {
	// Self is the answering replica's token.
	Self string `json:"self"`
	// Nodes lists every configured member, sorted by token.
	Nodes []NodeView `json:"nodes"`
}

// AlgoInfo describes one registered algorithm (GET /v1/algos).
type AlgoInfo struct {
	Name        string   `json:"name"`
	Aliases     []string `json:"aliases,omitempty"`
	Description string   `json:"description"`
}

// Error codes carried by ErrorBody. They are coarser than messages and
// stable across releases, so clients can switch on them.
const (
	CodeBadRequest       = "bad_request"
	CodeUnknownAlgorithm = "unknown_algorithm"
	CodeNotFound         = "not_found"
	CodeBodyTooLarge     = "body_too_large"
	CodeDeadlineExceeded = "deadline_exceeded"
	CodeQueueFull        = "queue_full"
	CodeShuttingDown     = "shutting_down"
	CodeScheduleFailed   = "schedule_failed"
	CodeJobNotDone       = "job_not_done"
	// CodeUpstreamUnavailable marks a request this replica forwarded to
	// the job's owner but could not deliver (owner down or unreachable).
	CodeUpstreamUnavailable = "upstream_unavailable"
	// CodeStoreUnavailable marks a persistence failure: the job was not
	// accepted because the store rejected the write. It maps to 503 —
	// the condition is transient (disk pressure, store mid-failover), so
	// clients retry exactly like queue_full.
	CodeStoreUnavailable = "store_unavailable"
	// CodeStoreError is the pre-rename alias of CodeStoreUnavailable,
	// kept so embedders switching on the old constant keep compiling.
	CodeStoreError = CodeStoreUnavailable
)

// ErrorBody is the typed error payload every non-2xx response carries,
// wrapped as {"error": {...}}.
type ErrorBody struct {
	Code    string `json:"code"`
	Message string `json:"message"`
	// Detail refines Code for validation failures with the library's
	// typed error taxonomy ("graph_cycle", "delta_unknown_proc", ...),
	// so clients can react to the exact defect without parsing Message.
	Detail string `json:"detail,omitempty"`
}

func (e *ErrorBody) Error() string { return fmt.Sprintf("%s: %s", e.Code, e.Message) }

// errorEnvelope is the on-wire shape of an error response.
type errorEnvelope struct {
	Error *ErrorBody `json:"error"`
}

// httpStatus maps an error code to its HTTP status.
func httpStatus(code string) int {
	switch code {
	case CodeBadRequest, CodeScheduleFailed:
		return http.StatusBadRequest
	case CodeUnknownAlgorithm, CodeNotFound:
		return http.StatusNotFound
	case CodeBodyTooLarge:
		return http.StatusRequestEntityTooLarge
	case CodeDeadlineExceeded:
		return http.StatusGatewayTimeout
	case CodeQueueFull, CodeShuttingDown, CodeStoreUnavailable:
		return http.StatusServiceUnavailable
	case CodeJobNotDone:
		return http.StatusConflict
	case CodeUpstreamUnavailable:
		return http.StatusBadGateway
	default:
		return http.StatusInternalServerError
	}
}

// validationDetail maps the library's typed validation errors to stable
// wire detail slugs. Unrecognized errors yield "" (no detail).
func validationDetail(err error) string {
	var (
		dupTask    *graph.DuplicateTaskError
		taskCost   *graph.TaskCostError
		edgeRange  *graph.EdgeRangeError
		selfLoop   *graph.SelfLoopError
		edgeCost   *graph.EdgeCostError
		dupEdge    *graph.DuplicateEdgeError
		cycle      *graph.CycleError
		factor     *system.FactorError
		unkTopo    *gen.UnknownTopoKindError
		dUnkProc   *sched.UnknownProcError
		dUnkTask   *sched.UnknownTaskError
		dUnkLink   *sched.UnknownLinkError
		dUnkEdge   *sched.UnknownEdgeError
		dEdgeTgt   *sched.DeltaEdgeTargetError
		dDisc      *sched.DisconnectedError
		dValue     *sched.DeltaValueError
		dDuplicate *sched.DeltaDuplicateError
	)
	switch {
	case errors.Is(err, graph.ErrEmptyTaskName):
		return "graph_empty_task_name"
	case errors.As(err, &dupTask):
		return "graph_duplicate_task"
	case errors.As(err, &taskCost):
		return "graph_task_cost"
	case errors.As(err, &edgeRange):
		return "graph_edge_range"
	case errors.As(err, &selfLoop):
		return "graph_self_loop"
	case errors.As(err, &edgeCost):
		return "graph_edge_cost"
	case errors.As(err, &dupEdge):
		return "graph_duplicate_edge"
	case errors.As(err, &cycle):
		return "graph_cycle"
	case errors.As(err, &factor):
		return "system_factor"
	case errors.As(err, &unkTopo):
		return "unknown_topo_kind"
	case errors.Is(err, sched.ErrEmptyDeltaName):
		return "delta_empty_name"
	case errors.Is(err, sched.ErrNoProcessors):
		return "delta_no_processors"
	case errors.As(err, &dUnkProc):
		return "delta_unknown_proc"
	case errors.As(err, &dUnkTask):
		return "delta_unknown_task"
	case errors.As(err, &dUnkLink):
		return "delta_unknown_link"
	case errors.As(err, &dUnkEdge):
		return "delta_unknown_edge"
	case errors.As(err, &dEdgeTgt):
		return "delta_edge_target"
	case errors.As(err, &dDisc):
		return "delta_disconnects"
	case errors.As(err, &dValue):
		return "delta_value"
	case errors.As(err, &dDuplicate):
		return "delta_duplicate"
	}
	return ""
}

// compileBudget bounds the bytes a server's compile cache charges. The
// perfbench schedd-mixed working set, 64 problems with 6.4 MiB of
// documents, charges about 12 MiB.
const compileBudget = 64 << 20

// Compiled sizes the cache charges per graph task and edge and per
// system factor: a graph.Task (32 B) plus its two adjacency-list headers
// (48 B), a graph.Edge (24 B) plus its two adjacency entries (8 B), a
// float64 factor.
const (
	taskBytes   = 80
	edgeBytes   = 32
	factorBytes = 8
)

// compileCache memoizes compiled interchange documents across every
// request a server handles — sync, async and batch intake, boot replay
// and reschedule recomputation — so a document the server has already
// compiled is not parsed and validated again. Clients resubmit one
// problem with varying seeds (cmd/schedload and every batch sweep do),
// so most document-carrying requests repeat a document.
//
// Graphs are keyed by their exact document bytes; systems by theirs plus
// the graph's dimensions and, for topology-derived systems, the
// heterogeneity spec and generated topology spec the materialization
// depends on. Only problems that compiled and validated are cached.
// Sharing them across requests and concurrently running jobs is safe:
// compiled graphs and systems are immutable (schedulers only read them,
// and Delta.Apply builds fresh matrices).
//
// Each entry is charged its key bytes plus its compiled size, so systems
// built from tiny topo+het keys count too; an insert that would pass the
// budget drops the whole cache first. A lookup copies nothing.
type compileCache struct {
	budget int64 // bytes; compileBudget outside tests

	mu      sync.Mutex
	charged int64 // bytes charged by the live entries
	graphs  map[string]*graph.Graph
	systems map[systemKey]*system.System
}

func newCompileCache(budget int64) *compileCache {
	return &compileCache{budget: budget, graphs: make(map[string]*graph.Graph), systems: make(map[systemKey]*system.System)}
}

// systemKey names a compiled system: its System or Topology document
// (empty for a generated Topo) plus everything else its materialization
// depends on.
type systemKey struct {
	doc string
	systemParams
}

type systemParams struct {
	topology     bool // doc is a bare network document
	topo         TopoSpecWire
	het          HetSpec
	hasHet       bool
	tasks, edges int
}

func (cc *compileCache) graph(doc []byte) *graph.Graph {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	return cc.graphs[string(doc)] // the conversion in an index expression does not copy
}

func (cc *compileCache) system(doc []byte, sp systemParams) *system.System {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	return cc.systems[systemKey{string(doc), sp}]
}

// put caches a validated problem's graph and system, whichever of the
// two is not cached yet.
func (cc *compileCache) put(gdoc []byte, g *graph.Graph, sdoc []byte, sp systemParams, sys *system.System) {
	gCharge := int64(len(gdoc) + taskBytes*g.NumTasks() + edgeBytes*g.NumEdges())
	sCharge := int64(len(sdoc) + factorBytes*(len(sys.Exec)*sys.Net.NumProcs()+len(sys.Comm)*sys.Net.NumLinks()))
	if gCharge+sCharge > cc.budget {
		return // it would never fit
	}
	cc.mu.Lock()
	defer cc.mu.Unlock()
	_, haveGraph := cc.graphs[string(gdoc)]
	_, haveSystem := cc.systems[systemKey{string(sdoc), sp}]
	var charge int64
	if !haveGraph {
		charge += gCharge
	}
	if !haveSystem {
		charge += sCharge
	}
	if cc.charged+charge > cc.budget {
		clear(cc.graphs)
		clear(cc.systems)
		cc.charged = 0
		haveGraph, haveSystem, charge = false, false, gCharge+sCharge
	}
	cc.charged += charge
	if !haveGraph {
		cc.graphs[string(gdoc)] = g
	}
	if !haveSystem {
		cc.systems[systemKey{string(sdoc), sp}] = sys
	}
}

// problem resolves a request's graph and system through the cache and
// validates them. compiled reports whether it parsed or built either
// document, that is, whether the cache missed; a problem that validates
// is then cached.
func (cc *compileCache) problem(req *ScheduleRequest) (p sched.Problem, compiled bool, errBody *ErrorBody) {
	fail := func(e *ErrorBody) (sched.Problem, bool, *ErrorBody) { return sched.Problem{}, compiled, e }
	if !hasDoc(req.Graph) {
		return fail(&ErrorBody{Code: CodeBadRequest, Message: "missing graph document"})
	}
	g := cc.graph(req.Graph)
	if g == nil {
		compiled = true
		var err error
		if g, err = graph.FromJSON(req.Graph); err != nil {
			return fail(&ErrorBody{Code: CodeBadRequest, Message: fmt.Sprintf("graph: %v", err), Detail: validationDetail(err)})
		}
	}

	sources := 0
	for _, present := range []bool{hasDoc(req.System), hasDoc(req.Topology), req.Topo != nil} {
		if present {
			sources++
		}
	}
	if sources > 1 {
		return fail(&ErrorBody{Code: CodeBadRequest, Message: "system, topology and topo are mutually exclusive"})
	}

	sp := systemParams{tasks: g.NumTasks(), edges: g.NumEdges()}
	if req.Het != nil {
		sp.het, sp.hasHet = *req.Het, true
	}
	var sdoc []byte
	switch {
	case hasDoc(req.System):
		if req.Het != nil {
			return fail(&ErrorBody{Code: CodeBadRequest, Message: "het applies to topology, not to a full system document"})
		}
		sdoc = req.System
	case hasDoc(req.Topology):
		sdoc, sp.topology = req.Topology, true
	case req.Topo != nil:
		sp.topo = *req.Topo
	default:
		return fail(&ErrorBody{Code: CodeBadRequest, Message: "missing system, topology or topo"})
	}
	sys := cc.system(sdoc, sp)
	if sys == nil {
		compiled = true
		var body *ErrorBody
		if sys, body = buildSystem(req, g); body != nil {
			return fail(body)
		}
	}

	// Problem.Validate is the library's public well-formedness gate; going
	// through it (rather than a private re-check) keeps the HTTP 400 body
	// aligned with what embedding code would see.
	p = sched.Problem{Graph: g, System: sys}
	if err := p.Validate(); err != nil {
		return fail(&ErrorBody{Code: CodeBadRequest, Message: err.Error(), Detail: validationDetail(err)})
	}
	if compiled {
		cc.put(req.Graph, g, sdoc, sp, sys)
	}
	return p, compiled, nil
}

// buildSystem compiles a request's system source, whichever of System,
// Topology and Topo it carries.
func buildSystem(req *ScheduleRequest, g *graph.Graph) (*system.System, *ErrorBody) {
	switch {
	case hasDoc(req.System):
		sys, err := system.SystemFromJSON(req.System)
		if err != nil {
			return nil, &ErrorBody{Code: CodeBadRequest, Message: fmt.Sprintf("system: %v", err), Detail: validationDetail(err)}
		}
		return sys, nil
	case hasDoc(req.Topology):
		nw, err := system.FromJSON(req.Topology)
		if err != nil {
			return nil, &ErrorBody{Code: CodeBadRequest, Message: fmt.Sprintf("topology: %v", err)}
		}
		return materializeSystem(nw, g, req.Het)
	default:
		nw, body := req.Topo.build()
		if body != nil {
			return nil, body
		}
		return materializeSystem(nw, g, req.Het)
	}
}

// compile resolves a wire request into a ready-to-run problem: parsed
// graph, materialized system and a constructed scheduler. All validation
// errors surface here, before the job enters the queue, so asynchronous
// submissions still fail fast with a typed 4xx. Documents the server has
// already compiled come from its compile cache.
func (s *Server) compile(req *ScheduleRequest) (sched.Problem, sched.Scheduler, *ErrorBody) {
	p, compiled, errBody := s.compiled.problem(req)
	if compiled {
		s.metrics.CompileMisses.Add(1)
	} else if errBody == nil {
		s.metrics.CompileHits.Add(1)
	}
	if errBody != nil {
		return sched.Problem{}, nil, errBody
	}
	name := req.Algo
	if name == "" {
		name = s.cfg.DefaultAlgo
	}
	scheduler, err := sched.Lookup(name)
	if err != nil {
		return sched.Problem{}, nil, &ErrorBody{Code: CodeUnknownAlgorithm, Message: err.Error()}
	}
	return p, scheduler, nil
}

// build materializes the named topology family. Equal specs yield
// identical networks: the only randomness (the random family) is drawn
// from the spec's own seed.
func (t *TopoSpecWire) build() (*system.Network, *ErrorBody) {
	kind, err := gen.TopoKindByName(t.Kind)
	if err != nil {
		return nil, &ErrorBody{Code: CodeBadRequest, Message: fmt.Sprintf("topo: %v", err), Detail: validationDetail(err)}
	}
	seed := t.Seed
	if seed == 0 {
		seed = 1
	}
	nw, err := gen.Topology(gen.TopoSpec{
		Kind:   kind,
		Procs:  t.Procs,
		Rows:   t.Rows,
		MinDeg: t.MinDeg,
		MaxDeg: t.MaxDeg,
		Spines: t.Spines,
		Groups: t.Groups,
	}, rand.New(rand.NewSource(seed)))
	if err != nil {
		return nil, &ErrorBody{Code: CodeBadRequest, Message: fmt.Sprintf("topo: %v", err)}
	}
	return nw, nil
}

// materializeSystem turns a bare network into a System: uniform factors,
// or the paper's seeded random min-normalized heterogeneity when het is
// present.
func materializeSystem(nw *system.Network, g *graph.Graph, h *HetSpec) (*system.System, *ErrorBody) {
	if h == nil {
		return system.NewUniform(nw, g.NumTasks(), g.NumEdges()), nil
	}
	seed := h.Seed
	if seed == 0 {
		seed = 1
	}
	sys, err := system.NewRandomMinNormalized(nw, g.NumTasks(), g.NumEdges(), h.Lo, h.Hi, rand.New(rand.NewSource(seed)))
	if err != nil {
		return nil, &ErrorBody{Code: CodeBadRequest, Message: fmt.Sprintf("het: %v", err), Detail: validationDetail(err)}
	}
	return sys, nil
}

// response converts a finished sched.Result to its wire form.
func response(res *sched.Result) (*ScheduleResponse, error) {
	doc, err := res.Schedule.MarshalJSON()
	if err != nil {
		return nil, err
	}
	return &ScheduleResponse{
		Algorithm: res.Algorithm,
		Makespan:  res.Makespan,
		ElapsedNS: res.Elapsed.Nanoseconds(),
		Summary:   res.Summary,
		Stats:     res.Stats,
		Schedule:  doc,
	}, nil
}

// encode writes r's JSON encoding to w, byte-identical to
// json.Marshal's. The schedule document goes out verbatim, after the
// other fields: Schedule.MarshalJSON already produced it compact, and
// encoding/json would validate and recompact every byte of it again.
func (r *ScheduleResponse) encode(w io.Writer) error {
	head := *r
	head.Schedule = nil
	data, err := json.Marshal(&head) // ends in "schedule":null}
	if err != nil {
		return err
	}
	if len(r.Schedule) == 0 {
		return writeAll(w, data)
	}
	return writeAll(w, bytes.TrimSuffix(data, []byte("null}")), r.Schedule, []byte("}"))
}

// encode writes v's JSON encoding to w, byte-identical to
// json.Marshal's, streaming its result through ScheduleResponse.encode.
func (v *JobView) encode(w io.Writer) error {
	if v.Result == nil {
		data, err := json.Marshal(v)
		if err != nil {
			return err
		}
		return writeAll(w, data)
	}
	head := *v
	head.Result, head.Error = nil, nil
	data, err := json.Marshal(&head) // the fields before result, then }
	if err != nil {
		return err
	}
	if err := writeAll(w, data[:len(data)-1], []byte(`,"result":`)); err != nil {
		return err
	}
	if err := v.Result.encode(w); err != nil {
		return err
	}
	tail := []byte("}")
	if v.Error != nil {
		e, err := json.Marshal(v.Error)
		if err != nil {
			return err
		}
		tail = append(append([]byte(`,"error":`), e...), '}')
	}
	return writeAll(w, tail)
}

// writeAll writes the parts to w in turn.
func writeAll(w io.Writer, parts ...[]byte) error {
	for _, p := range parts {
		if _, err := w.Write(p); err != nil {
			return err
		}
	}
	return nil
}
