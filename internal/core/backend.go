// Schedule-state backends: the engine's mutable timeline state sits behind
// a narrow internal interface so alternative layouts can compete without
// another oracle-equivalence odyssey. The ground truth (serial, assign,
// routes) and the derived per-item placements (s.Tasks, s.Msgs) stay on
// the engine/Schedule; a backend owns only the *slot* state — who occupies
// each processor and link when — and the operations the engine needs from
// it:
//
//   - rebuild: derive all slot state from scratch (cold start, elitism
//     restore, oracle commits).
//   - updateFrom: the event-driven cone update after one migration.
//   - procEarliestFit / linkEarliestFitWithExtra: the read-only fit
//     queries candidate evaluation issues between updates.
//   - finalize: materialize the slot state into the Schedule's Timelines
//     (validation, rendering and the Gantt renderer read those).
//
// Every backend must produce byte-identical schedules to the full-rebuild
// oracle; the conformance suite (backend_conformance_test.go) asserts this
// for both backends, cold and warm-started.

package core

import (
	"fmt"

	"repro/internal/schedule"
	"repro/sched/graph"
	"repro/sched/system"
)

// backend is the engine's schedule-state interface.
type backend interface {
	// rebuild derives the complete slot state from the engine's current
	// (serial, assign, routes), replacing whatever was there.
	rebuild()
	// updateFrom re-derives the slot state after a migration of mig,
	// processing only the migration's dependency cone. It must update
	// en.s.Tasks/en.s.Msgs, the epoch-stamped taskChanged flags and the
	// engine's change lists (updTasks, updMsgs) exactly as a full rebuild
	// diff would.
	updateFrom(mig graph.TaskID)
	// procEarliestFit returns the earliest start >= ready at which dur
	// units fit on processor p, identical to Timeline.EarliestFit on the
	// current slot state.
	procEarliestFit(p system.ProcID, ready, dur float64) float64
	// linkEarliestFitWithExtra is procEarliestFit for link l, additionally
	// avoiding the tentative slots in extra (sorted by start).
	linkEarliestFitWithExtra(l system.LinkID, ready, dur float64, extra []schedule.Slot) float64
	// finalize materializes the slot state into en.s's Timelines. It must
	// be idempotent and callable at any point between updates.
	finalize()
}

// Backend names. The reference backend operates directly on the
// Schedule's insertion-sorted Timelines; the SoA backend keeps slot state
// in structure-of-arrays form with rank-keyed visibility (see
// backend_soa.go).
const (
	backendReference = "reference"
	backendSoA       = "soa"
)

// soaDensityThreshold is the link-density cutoff above which the SoA
// backend is the default. Sequentially at n=500, SoA beats reference on
// fully connected networks (dense networks route in one hop across many
// links, so each link timeline stays short) and loses on ring, hypercube
// and mesh, where 16 links carry every multi-hop route. The loss is not
// the visibility filter: an SoA fit on those networks steps over one to
// four invisible slots against 50–65 visible ones (counted on the
// BenchmarkBSATopologies instances), and both backends share the
// rejected-run memo that cuts the visible steps. It is SoA's per-item
// bookkeeping — owner searches, slot shifts, evictions and
// removal-interval lists — which costs more than the reference's strip
// and re-reserve when few long timelines absorb every update. Density —
// links as a fraction of the complete graph's — is a static, cost-free
// proxy for that trade: 1.0 for fully connected, 0.27 for hypercube-16,
// 0.13 for ring-16.
const soaDensityThreshold = 0.75

// defaultBackend picks the backend for a network: SoA on dense
// (short-route, many-link) networks, reference elsewhere. Conformance
// keeps both byte-identical, so the choice is purely a speed trade.
func defaultBackend(net *system.Network) string {
	p := net.NumProcs()
	if p < 2 {
		return backendReference
	}
	density := 2 * float64(net.NumLinks()) / (float64(p) * float64(p-1))
	if density >= soaDensityThreshold {
		return backendSoA
	}
	return backendReference
}

// newBackend builds the engine's backend. The full-rebuild oracle
// rebuilds whole timelines each commit; it exists to be the
// trivially-correct comparison point, so it always runs on the reference
// layout. Otherwise en.cfg.backend forces a backend (the conformance
// tests set it through Options.backend) and empty applies the density
// rule.
func newBackend(en *engine) backend {
	name := en.cfg.backend
	switch {
	case en.cfg.fullRebuild:
		name = backendReference
	case name == "":
		name = defaultBackend(en.sys.Net)
	}
	switch name {
	case backendReference:
		return &refBackend{en: en}
	case backendSoA:
		return newSoaBackend(en)
	}
	panic(fmt.Sprintf("core: unknown backend %q", name))
}

// Processing-order keys. The cone update consumes work in serial-rank
// order; within a rank, a task's incoming messages go in In() order before
// the task itself. A single int64 key encodes that order so the SoA
// backend can compare "does this slot belong to an item processed before
// the one being placed" with one integer compare:
//
//	message hop of edge e: rank(dest)<<20 | In-index of e
//	task:                  rank<<20       | taskKeyTag
//
// In-index fits 20 bits for the same reason hop indices do in
// schedule.MsgOwner (a task with 2^20 predecessors is far beyond any
// supported graph).
const taskKeyTag = 0xFFFFF

func msgItemKey(rank int, inIdx int32) int64 { return int64(rank)<<20 | int64(inIdx) }
func taskItemKey(rank int) int64             { return int64(rank)<<20 | taskKeyTag }
