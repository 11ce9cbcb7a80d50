// This file models processor and link heterogeneity: the factor matrices
// h_ix (task i on processor x) and h'_ijxy (message ij on link xy) of the
// paper. Actual costs are nominal costs multiplied by these factors;
// nominal costs represent the fastest (reference) resource, so factors are
// >= 1 in the paper's experiments (factor generators enforce lo >= something
// positive but accept any positive range).

package system

import (
	"fmt"
	"math"
	"math/rand"
)

// System couples a network with heterogeneity factor matrices for a
// specific task graph size. Exec[t][p] scales task t's nominal execution
// cost on processor p; Comm[e][l] scales message e's nominal communication
// cost on link l. A nil Comm means homogeneous links (factor 1), as in the
// paper's worked example.
type System struct {
	Net  *Network
	Exec [][]float64
	Comm [][]float64
}

// NewUniform returns a System over nw in which every factor is 1 — a
// homogeneous system, useful as a baseline and in tests.
func NewUniform(nw *Network, nTasks, nEdges int) *System {
	s := &System{Net: nw, Exec: make([][]float64, nTasks)}
	m := nw.NumProcs()
	for i := range s.Exec {
		row := make([]float64, m)
		for j := range row {
			row[j] = 1
		}
		s.Exec[i] = row
	}
	_ = nEdges // Comm stays nil: all link factors are 1.
	return s
}

// NewRandom returns a System whose execution factors are drawn uniformly
// from [lo, hi] per (task, processor) pair and whose communication factors
// are drawn uniformly from [lo, hi] per (edge, link) pair, matching the
// paper's experimental setup ("heterogeneity factors were selected randomly
// from a uniform distribution with range [1, 50]").
func NewRandom(nw *Network, nTasks, nEdges int, lo, hi float64, rng *rand.Rand) (*System, error) {
	if lo <= 0 || hi < lo {
		return nil, fmt.Errorf("system: invalid factor range [%v, %v]", lo, hi)
	}
	s := &System{
		Net:  nw,
		Exec: make([][]float64, nTasks),
		Comm: make([][]float64, nEdges),
	}
	draw := func() float64 { return lo + rng.Float64()*(hi-lo) }
	m := nw.NumProcs()
	for i := range s.Exec {
		row := make([]float64, m)
		for j := range row {
			row[j] = draw()
		}
		s.Exec[i] = row
	}
	nl := nw.NumLinks()
	for i := range s.Comm {
		row := make([]float64, nl)
		for j := range row {
			row[j] = draw()
		}
		s.Comm[i] = row
	}
	return s, nil
}

// NewRandomNormalized draws factors uniformly from [lo, hi] and rescales
// them by 2/(lo+hi) so their mean is 1. Widening the range then increases
// the *variance* of actual costs while keeping their scale fixed, which is
// the only reading consistent with the paper's Figure 7 (schedule lengths
// grow ~30% when the heterogeneity range grows from [1,10] to [1,200];
// unnormalized multiplicative factors would grow them ~20x).
func NewRandomNormalized(nw *Network, nTasks, nEdges int, lo, hi float64, rng *rand.Rand) (*System, error) {
	s, err := NewRandom(nw, nTasks, nEdges, lo, hi, rng)
	if err != nil {
		return nil, err
	}
	scale := 2 / (lo + hi)
	for i := range s.Exec {
		for j := range s.Exec[i] {
			s.Exec[i][j] *= scale
		}
	}
	for i := range s.Comm {
		for j := range s.Comm[i] {
			s.Comm[i][j] *= scale
		}
	}
	return s, nil
}

// NewRandomMinNormalized draws factors uniformly from [lo, hi] and rescales
// each task's row (and each edge's row) so its minimum is exactly 1: the
// fastest processor for a task then runs it at the nominal cost, which is
// the paper's literal statement that "the nominal execution and
// communication costs in each graph represented the costs of the fastest
// processor". Widening [lo, hi] increases the penalty of every non-optimal
// placement while the best-case stays fixed, reproducing Figure 7's mild
// schedule-length growth with the heterogeneity range. This is the model
// the experiment harness uses: of the two normalizations it is the one the
// paper states, and the nominal costs of a generated graph keep their
// meaning at every heterogeneity range.
func NewRandomMinNormalized(nw *Network, nTasks, nEdges int, lo, hi float64, rng *rand.Rand) (*System, error) {
	s, err := NewRandom(nw, nTasks, nEdges, lo, hi, rng)
	if err != nil {
		return nil, err
	}
	normalizeRows(s.Exec)
	normalizeRows(s.Comm)
	return s, nil
}

func normalizeRows(rows [][]float64) {
	for _, row := range rows {
		if len(row) == 0 {
			continue
		}
		min := row[0]
		for _, f := range row[1:] {
			if f < min {
				min = f
			}
		}
		for j := range row {
			row[j] /= min
		}
	}
}

// ExecFactor returns h_ix for task t on processor p.
func (s *System) ExecFactor(t int, p ProcID) float64 { return s.Exec[t][p] }

// CommFactor returns h'_ijxy for edge e on link l (1 when Comm is nil).
func (s *System) CommFactor(e int, l LinkID) float64 {
	if s.Comm == nil {
		return 1
	}
	return s.Comm[e][l]
}

// ExecCost returns the actual execution cost of a task with nominal cost
// tau on processor p.
func (s *System) ExecCost(t int, p ProcID, tau float64) float64 {
	return s.Exec[t][p] * tau
}

// CommCost returns the actual communication cost of edge e with nominal
// cost c on link l.
func (s *System) CommCost(e int, l LinkID, c float64) float64 {
	return s.CommFactor(e, l) * c
}

// ExecCostsOn returns the actual execution costs of all tasks on processor
// p, given their nominal costs.
func (s *System) ExecCostsOn(p ProcID, nominal []float64) []float64 {
	out := make([]float64, len(nominal))
	for i, tau := range nominal {
		out[i] = s.Exec[i][p] * tau
	}
	return out
}

// MedianExecFactorCost returns, per task, the median over processors of the
// actual execution cost — the E*(t) used by DLS's heterogeneity adjustment.
func (s *System) MedianExecFactorCost(nominal []float64) []float64 {
	m := s.Net.NumProcs()
	out := make([]float64, len(nominal))
	buf := make([]float64, m)
	for i, tau := range nominal {
		copy(buf, s.Exec[i])
		insertionSort(buf)
		var med float64
		if m%2 == 1 {
			med = buf[m/2]
		} else {
			med = (buf[m/2-1] + buf[m/2]) / 2
		}
		out[i] = med * tau
	}
	return out
}

// FactorError is reported by Validate for a factor matrix entry that is
// not a positive, finite number. NaN and ±Inf entries are rejected at
// the boundary — loaded from JSON they would otherwise poison every
// timeline computed from the system.
type FactorError struct {
	Matrix   string // "Exec" or "Comm"
	Row, Col int
	Value    float64
}

func (e *FactorError) Error() string {
	if math.IsNaN(e.Value) || math.IsInf(e.Value, 0) {
		return fmt.Sprintf("system: %s[%d][%d]=%v must be finite", e.Matrix, e.Row, e.Col, e.Value)
	}
	return fmt.Sprintf("system: %s[%d][%d]=%v must be positive", e.Matrix, e.Row, e.Col, e.Value)
}

// Validate checks matrix dimensions against a task/edge count and that all
// factors are positive and finite (*FactorError otherwise).
func (s *System) Validate(nTasks, nEdges int) error {
	if s.Net == nil {
		return fmt.Errorf("system: nil network")
	}
	if len(s.Exec) != nTasks {
		return fmt.Errorf("system: Exec has %d rows, want %d", len(s.Exec), nTasks)
	}
	m := s.Net.NumProcs()
	for i, row := range s.Exec {
		if len(row) != m {
			return fmt.Errorf("system: Exec[%d] has %d cols, want %d", i, len(row), m)
		}
		for j, f := range row {
			if !(f > 0) || math.IsInf(f, 0) {
				return &FactorError{Matrix: "Exec", Row: i, Col: j, Value: f}
			}
		}
	}
	if s.Comm != nil {
		if len(s.Comm) != nEdges {
			return fmt.Errorf("system: Comm has %d rows, want %d", len(s.Comm), nEdges)
		}
		nl := s.Net.NumLinks()
		for i, row := range s.Comm {
			if len(row) != nl {
				return fmt.Errorf("system: Comm[%d] has %d cols, want %d", i, len(row), nl)
			}
			for j, f := range row {
				if !(f > 0) || math.IsInf(f, 0) {
					return &FactorError{Matrix: "Comm", Row: i, Col: j, Value: f}
				}
			}
		}
	}
	return nil
}

func insertionSort(a []float64) {
	for i := 1; i < len(a); i++ {
		v := a[i]
		j := i - 1
		for j >= 0 && a[j] > v {
			a[j+1] = a[j]
			j--
		}
		a[j+1] = v
	}
}
