// Pairwise distance kernel: selection-based PairDistance with per-worker
// scratch, and the flat triangular distance matrix with balanced pair-block
// parallel fill. This is the hot path of the §3.2/Appendix A colocation
// inference — every ISP costs O(n²) pair distances over ~163-entry latency
// vectors — so the kernel is written to be allocation-free in steady state.
// It keeps exactly the sites a sort-per-pair implementation keeps; its mean
// may differ from that implementation's in the last bits, because the kept
// values are summed in selection order rather than ascending (DESIGN.md
// §8.1).
package coloc

import (
	"context"
	"fmt"
	"math"

	"offnetrisk/internal/mlab"
	"offnetrisk/internal/obs"
	"offnetrisk/internal/par"
)

// PairDistance computes the normalized Manhattan distance between two
// latency vectors over the given site indices, after dropping the `exclude`
// fraction of sites with the largest per-site discrepancy.
//
// This convenience form allocates a scratch per call; the distance-matrix
// fill reuses a per-worker PairScratch instead.
func PairDistance(a, b []float64, sites []int, exclude float64) float64 {
	var s PairScratch
	d := s.PairDistance(a, b, sites, exclude)
	s.FlushFunnel()
	return d
}

// PairScratch holds the reusable per-worker buffer for PairDistance. The
// zero value is ready; the buffer grows to the largest site set seen. Not
// safe for concurrent use — one per worker (par.ForEachLocal).
//
// Funnel accounting (coloc.pairs) is batched into the plain int64 fields and
// published with FlushFunnel, keeping the per-pair path free of atomics and
// allocations.
type PairScratch struct {
	diffs []uint64 // per-site |a−b| as IEEE-754 bits; see selectSmallest

	fIn, fNaN, fExcl, fOut int64
}

// FlushFunnel publishes the batched coloc.pairs accounting and zeroes the
// batch. Callers flush once per block (or per call for the convenience
// form), not per pair.
func (s *PairScratch) FlushFunnel() {
	if s.fIn == 0 {
		return
	}
	fPairs.In(s.fIn)
	fPairs.Out(s.fOut)
	fPairsNaN.Add(s.fNaN)
	fPairsDiscrepant.Add(s.fExcl)
	s.fIn, s.fNaN, s.fExcl, s.fOut = 0, 0, 0, 0
}

// PairDistance is the scratch-reusing pair distance. The exclusion is
// computed by partial selection (quickselect) of the kept k smallest
// per-site discrepancies instead of a full sort, and the kept values are
// summed in the order the selection leaves them. The kept multiset is
// exactly the sort-everything implementation's; the mean is within k·2⁻⁵²
// relative of that implementation's ascending sum. The order is a pure
// function of the inputs, so the result is bit-identical from call to call,
// with any scratch, and with a and b swapped (see DESIGN.md §8.1).
func (s *PairScratch) PairDistance(a, b []float64, sites []int, exclude float64) float64 {
	diffs := s.diffs[:0]
	if cap(diffs) < len(sites) {
		diffs = make([]uint64, 0, len(sites))
	}
	for _, si := range sites {
		x, y := a[si], b[si]
		if math.IsNaN(x) || math.IsNaN(y) {
			continue
		}
		diffs = append(diffs, math.Float64bits(math.Abs(x-y)))
	}
	s.diffs = diffs
	s.fIn += int64(len(sites))
	s.fNaN += int64(len(sites) - len(diffs))
	if len(diffs) == 0 {
		return math.Inf(1)
	}
	keep := len(diffs) - int(float64(len(diffs))*exclude)
	if keep < 1 {
		keep = 1
	}
	s.fExcl += int64(len(diffs) - keep)
	s.fOut += int64(keep)
	if keep < len(diffs) {
		selectSmallest(diffs, keep)
		diffs = diffs[:keep]
	}
	// Summed in selection order: the paper's rule fixes which sites are
	// kept, not the order they are added in.
	var sum float64
	for _, d := range diffs {
		sum += math.Float64frombits(d)
	}
	return sum / float64(keep)
}

// selectSmallest partially partitions a so a[:k] holds its k smallest values
// (in unspecified order). Requires 0 < k < len(a). The values are the bits
// of discrepancies |Δ| ≥ 0, whose sign bit is clear, so they order as
// uint64s exactly as the floats do.
//
// It is quickselect with a median-of-three pivot and a branch-free Lomuto
// partition. When the pivot is the least value in range, nothing falls
// below it, and the values equal to it are split off instead, so ties cannot
// stall the loop.
func selectSmallest(a []uint64, k int) {
	// Invariant: a[:lo] ≤ a[lo:hi] ≤ a[hi:] and lo < k ≤ hi.
	lo, hi := 0, len(a)
	for hi-lo > 1 {
		x, y, z := a[lo], a[lo+(hi-lo)/2], a[hi-1]
		p := max(min(x, y), min(max(x, y), z))
		m := lo + partitionBelow(a[lo:hi], p)
		if m == lo {
			// p is the least value in range: split off the values equal
			// to it, those below p+1 (p < 2⁶³, so p+1 suits the partition).
			m = lo + partitionBelow(a[lo:hi], p+1)
			if m >= k {
				return
			}
		}
		switch {
		case m == k:
			return
		case m > k:
			hi = m
		default:
			lo = m
		}
	}
}

// partitionBelow moves the values of s below p to its front and returns how
// many there are. Every value costs the same two stores and one add
// whichever side it lands on: v − p wraps to a set sign bit exactly when
// v < p, given v < 2⁶³ and p ≤ 2⁶³. No branch depends on the data, so
// random discrepancies cost no mispredictions.
func partitionBelow(s []uint64, p uint64) int {
	i := 0
	for j, v := range s {
		s[j] = s[i]
		s[i] = v
		i += int((v - p) >> 63)
	}
	return i
}

// DistMatrix is a symmetric pairwise distance matrix with an implicit zero
// diagonal, stored as the strict upper triangle in one flat contiguous
// slice — n(n-1)/2 cells instead of the n+1 separate allocations (and 2×
// redundant storage) of a [][]float64.
type DistMatrix struct {
	n     int
	cells []float64 // row-major strict upper triangle; see index
}

// NewDistMatrix returns an n×n matrix with all off-diagonal cells zero.
func NewDistMatrix(n int) *DistMatrix {
	m := &DistMatrix{}
	m.Reset(n)
	return m
}

// Reset resizes the matrix for n points, reusing the cell storage when it is
// large enough and zeroing nothing (every cell is written by the fill).
func (m *DistMatrix) Reset(n int) {
	m.n = n
	cells := n * (n - 1) / 2
	if cap(m.cells) < cells {
		m.cells = make([]float64, cells)
	}
	m.cells = m.cells[:cells]
}

// N returns the number of points.
func (m *DistMatrix) N() int { return m.n }

// index maps i < j to the flat cell position: rows of shrinking length
// n-1-i, so row i starts at i*(n-1) - i*(i-1)/2.
func (m *DistMatrix) index(i, j int) int {
	return i*(m.n-1) - i*(i-1)/2 + (j - i - 1)
}

// At returns the distance between points i and j. It satisfies
// optics.DistFunc directly — symmetry and the zero diagonal are structural.
func (m *DistMatrix) At(i, j int) float64 {
	if i == j {
		return 0
	}
	if i > j {
		i, j = j, i
	}
	return m.cells[m.index(i, j)]
}

// pairBlock is the number of pair cells per fill task. Blocks — not rows —
// are the fan-out unit: row i holds n-1-i cells, so one-task-per-row gives
// the first worker ~n cells and the last none, while fixed-size blocks of
// the flat triangle are balanced to within one block regardless of n.
const pairBlock = 2048

// DistanceMatrixContext builds the pairwise distance matrix for an ISP's
// measurements, fanned out in balanced pair-blocks across workers: each
// task fills a disjoint contiguous range of the flat triangle, so any
// worker count fills the same cells. Distances are pure functions of the
// inputs — no RNG to thread.
func DistanceMatrixContext(ctx context.Context, ms []*mlab.Measurement, sites []int, exclude float64, workers int) (*DistMatrix, error) {
	m := NewDistMatrix(len(ms))
	if err := DistanceMatrixInto(ctx, m, ms, sites, exclude, workers); err != nil {
		return nil, err
	}
	return m, nil
}

// DistanceMatrixInto is DistanceMatrixContext writing into a caller-owned
// (typically per-worker, reused) matrix. On error the matrix contents are
// undefined. mDistancesComputed is incremented only on success: a
// context-cancelled fill computed some unknown subset, which must not count
// as completed work in the run manifest.
func DistanceMatrixInto(ctx context.Context, m *DistMatrix, ms []*mlab.Measurement, sites []int, exclude float64, workers int) error {
	n := len(ms)
	m.Reset(n)
	pairs := n * (n - 1) / 2
	blocks := (pairs + pairBlock - 1) / pairBlock
	opts := par.Options{Workers: workers, Name: "distance-matrix"}
	err := par.ForEachLocal(ctx, blocks, opts, func() *PairScratch { return &PairScratch{} },
		func(_ context.Context, b int, sc *PairScratch) error {
			m.fillBlock(b, sc, ms, sites, exclude)
			sc.FlushFunnel()
			return nil
		})
	if err != nil {
		return err
	}
	mDistancesComputed.Add(int64(pairs))
	return nil
}

// fillBlock writes block b's cells. It unranks the block's first flat cell
// into its (i, j) pair, then walks the triangle row-major: the flat index
// advances in lockstep, so each cell is written exactly once by one task.
func (m *DistMatrix) fillBlock(b int, sc *PairScratch, ms []*mlab.Measurement, sites []int, exclude float64) {
	n := m.n
	start := b * pairBlock
	end := min(start+pairBlock, len(m.cells))
	i, rowStart := 0, 0
	for rowStart+(n-1-i) <= start {
		rowStart += n - 1 - i
		i++
	}
	j := i + 1 + (start - rowStart)
	lr := obs.ActiveLineage()
	for k := start; k < end; k++ {
		m.cells[k] = sc.PairDistance(ms[i].RTTms, ms[j].RTTms, sites, exclude)
		if lr != nil {
			// Sampled pair evidence. Every pair belongs to exactly one
			// ISP's measurement set and one block task, so no two
			// workers ever offer the same identity — the sample is
			// deterministic at any worker count.
			a, b, d := ms[i].Target, ms[j].Target, m.cells[k]
			lr.Record(fPairs.Name(), fmt.Sprintf("isp=%d", a.ISP),
				a.Addr.String()+"|"+b.Addr.String(),
				obs.LineageKept, "distance", func() []obs.LineageKV {
					return []obs.LineageKV{
						{K: "distance_ms", V: fmt.Sprintf("%.6g", d)},
						{K: "sites", V: fmt.Sprint(len(sites))},
						{K: "exclude_frac", V: fmt.Sprintf("%g", exclude)},
						{K: "hg_a", V: a.HG.String()},
						{K: "hg_b", V: b.HG.String()},
					}
				})
		}
		j++
		if j == n {
			i++
			j = i + 1
		}
	}
}
