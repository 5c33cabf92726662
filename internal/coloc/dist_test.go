package coloc

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"sort"
	"testing"

	"offnetrisk/internal/mlab"
	"offnetrisk/internal/obs"
	"offnetrisk/internal/rngutil"
)

// referencePairDistance is the original allocate-and-fully-sort
// implementation, kept as the oracle for the selection-based kernel. It also
// returns the kept discrepancies in ascending order (nil for +Inf).
func referencePairDistance(a, b []float64, sites []int, exclude float64) (float64, []float64) {
	diffs := make([]float64, 0, len(sites))
	for _, si := range sites {
		x, y := a[si], b[si]
		if math.IsNaN(x) || math.IsNaN(y) {
			continue
		}
		diffs = append(diffs, math.Abs(x-y))
	}
	if len(diffs) == 0 {
		return math.Inf(1), nil
	}
	sort.Float64s(diffs)
	keep := len(diffs) - int(float64(len(diffs))*exclude)
	if keep < 1 {
		keep = 1
	}
	var sum float64
	for _, d := range diffs[:keep] {
		sum += d
	}
	return sum / float64(keep), diffs[:keep]
}

// nearReference reports whether a kernel mean is within k·2⁻⁵² relative of
// the reference's ascending-order mean, k being the number of kept sites:
// each summation order is within (k−1)·2⁻⁵³ of the exact sum and the
// division rounds once more. +Inf and 0 must match exactly.
func nearReference(got, want float64, k int) bool {
	if math.IsInf(want, 1) {
		return math.IsInf(got, 1)
	}
	return math.Abs(got-want) <= float64(k)*0x1p-52*want
}

// agreesWithReference checks the PairDistance result got, just computed on
// sc, against the reference: the kept sites (sc.diffs[:k]) are the
// reference's multiset bit for bit, and the mean is nearReference.
func agreesWithReference(sc *PairScratch, got float64, a, b []float64, sites []int, exclude float64) error {
	want, wantKept := referencePairDistance(a, b, sites, exclude)
	kept := make([]float64, len(wantKept))
	for i, d := range sc.diffs[:len(wantKept)] {
		kept[i] = math.Float64frombits(d)
	}
	sort.Float64s(kept)
	for i := range kept {
		if math.Float64bits(kept[i]) != math.Float64bits(wantKept[i]) {
			return fmt.Errorf("kept value %d = %v, reference keeps %v", i, kept[i], wantKept[i])
		}
	}
	if !nearReference(got, want, len(wantKept)) {
		return fmt.Errorf("got %v, want %v within %d·2⁻⁵² relative", got, want, len(wantKept))
	}
	return nil
}

// randomPair draws a random latency-vector pair: sometimes continuous,
// sometimes quantized to a tiny grid so the discrepancies are tie-heavy
// (duplicate values across the quickselect partition boundary), with NaN
// holes sprinkled in.
func randomPair(seed int64) (a, b []float64, sites []int, exclude float64) {
	r := rngutil.New(seed)
	n := r.Intn(200) + 1
	a = make([]float64, n)
	b = make([]float64, n)
	quantized := r.Intn(2) == 0
	for i := range a {
		if r.Float64() < 0.05 {
			a[i] = math.NaN()
		} else if quantized {
			a[i] = float64(r.Intn(4))
		} else {
			a[i] = r.Float64() * 50
		}
		if r.Float64() < 0.05 {
			b[i] = math.NaN()
		} else if quantized {
			b[i] = float64(r.Intn(4))
		} else {
			b[i] = r.Float64() * 50
		}
	}
	for i := 0; i < n; i++ {
		if r.Float64() < 0.8 {
			sites = append(sites, i)
		}
	}
	exclude = []float64{0, DiscrepancyExclusion, 0.5, r.Float64()}[r.Intn(4)]
	return a, b, sites, exclude
}

// TestPairDistanceMatchesReference is the differential proof against the
// sort-based reference on 1000 seeded random inputs, including tie-heavy
// ones, with one scratch reused across every case (the steady-state usage):
// the same sites are kept, bit for bit, and the mean is within the
// summation-order bound.
func TestPairDistanceMatchesReference(t *testing.T) {
	var sc PairScratch
	for seed := int64(0); seed < 1000; seed++ {
		a, b, sites, exclude := randomPair(seed)
		got := sc.PairDistance(a, b, sites, exclude)
		if err := agreesWithReference(&sc, got, a, b, sites, exclude); err != nil {
			t.Fatalf("seed %d (n=%d exclude=%v): %v", seed, len(sites), exclude, err)
		}
	}
}

// TestPairDistanceRepeatable pins the bit-exact determinism the reference
// check no longer does: a fresh scratch per call, one reused scratch and
// swapped arguments all return the same bits.
func TestPairDistanceRepeatable(t *testing.T) {
	var sc PairScratch
	for seed := int64(0); seed < 1000; seed++ {
		a, b, sites, exclude := randomPair(seed)
		want := PairDistance(a, b, sites, exclude)
		if got := sc.PairDistance(a, b, sites, exclude); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("seed %d: reused scratch gives %v, fresh scratch %v", seed, got, want)
		}
		if got := PairDistance(b, a, sites, exclude); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("seed %d: swapped arguments give %v, fresh scratch %v", seed, got, want)
		}
	}
}

// FuzzPairDistance decodes a latency-vector pair from bytes — two per site,
// with lost probes (NaN) and a coarse grid that makes ties common — and
// checks the kernel against the reference, for symmetry, and for +Inf
// exactly when no site has both RTTs.
func FuzzPairDistance(f *testing.F) {
	f.Add([]byte{1, 1, 3, 33, 0x42, 0x10, 0xf0, 7, 9, 9}, uint8(51))
	f.Add([]byte{0xff, 1, 2, 0xf3}, uint8(0))
	f.Add([]byte{5, 37, 69, 101, 133, 165, 197, 229, 1, 3}, uint8(255))
	f.Fuzz(func(t *testing.T, data []byte, excl uint8) {
		value := func(v byte) float64 {
			switch {
			case v >= 0xf0:
				return math.NaN()
			case v&1 == 1:
				return float64(v >> 5) // 0–7: tie-heavy
			default:
				return float64(v) * 0.37
			}
		}
		n := len(data) / 2
		a, b, sites := make([]float64, n), make([]float64, n), make([]int, n)
		both := false
		for i := range sites {
			a[i], b[i], sites[i] = value(data[2*i]), value(data[2*i+1]), i
			both = both || !math.IsNaN(a[i]) && !math.IsNaN(b[i])
		}
		exclude := float64(excl) / 255
		var sc PairScratch
		got := sc.PairDistance(a, b, sites, exclude)
		if err := agreesWithReference(&sc, got, a, b, sites, exclude); err != nil {
			t.Fatal(err)
		}
		if swapped := sc.PairDistance(b, a, sites, exclude); math.Float64bits(swapped) != math.Float64bits(got) {
			t.Fatalf("d(a,b) = %v but d(b,a) = %v", got, swapped)
		}
		if math.IsInf(got, 1) == both {
			t.Fatalf("got %v with a site having both RTTs = %v", got, both)
		}
	})
}

// TestPairDistanceZeroAlloc guards the steady-state kernel: once the scratch
// has grown, a pair distance performs zero allocations.
func TestPairDistanceZeroAlloc(t *testing.T) {
	a, b, sites, _ := randomPair(7)
	var sc PairScratch
	sc.PairDistance(a, b, sites, DiscrepancyExclusion) // warm the buffer
	if n := testing.AllocsPerRun(200, func() {
		sc.PairDistance(a, b, sites, DiscrepancyExclusion)
	}); n != 0 {
		t.Fatalf("steady-state PairDistance allocates %v per pair, want 0", n)
	}
}

// syntheticMeasurements builds bare measurements (only RTTms is read by the
// distance kernel) for matrix tests.
func syntheticMeasurements(seed int64, n, sites int) ([]*mlab.Measurement, []int) {
	r := rngutil.New(seed)
	ms := make([]*mlab.Measurement, n)
	for i := range ms {
		v := make([]float64, sites)
		for s := range v {
			if r.Float64() < 0.03 {
				v[s] = math.NaN()
			} else {
				v[s] = r.Float64() * 40
			}
		}
		ms[i] = &mlab.Measurement{RTTms: v}
	}
	idx := make([]int, sites)
	for i := range idx {
		idx[i] = i
	}
	return ms, idx
}

// TestDistanceMatrixBlocksMatchPairDistance checks the balanced pair-block
// fill cell by cell against direct PairDistance calls, bit for bit at 1, 3
// and 8 workers, and against the reference within the summation-order
// bound. The site lists are the identity, a strict ascending subset and an
// out-of-order subset (a pair reads its sites in the list's order); the
// vectors have NaN holes, sparse and dense; n=100 gives 4950 pairs, three
// 2048-cell blocks. The coloc.pairs funnel must read the same in, out and
// drop counts as the direct calls.
func TestDistanceMatrixBlocksMatchPairDistance(t *testing.T) {
	const n, width = 100, 60
	identity := make([]int, width)
	for i := range identity {
		identity[i] = i
	}
	var ascending []int
	for i := 0; i < width; i += 3 {
		ascending = append(ascending, i, i+1)
	}
	outOfOrder := []int{41, 3, 17, 59, 0, 22, 8, 35, 12, 50, 29, 46, 5, 33, 57, 1}
	dense, _ := syntheticMeasurements(4, n, width)
	for _, m := range dense {
		for s := 0; s < width; s += 4 {
			m.RTTms[s] = math.NaN()
		}
	}
	sparse, _ := syntheticMeasurements(3, n, width)
	for _, c := range []struct {
		name  string
		ms    []*mlab.Measurement
		sites []int
	}{
		{"identity", sparse, identity},
		{"ascending-subset", sparse, ascending},
		{"out-of-order", sparse, outOfOrder},
		{"dense-nan-out-of-order", dense, outOfOrder},
		{"dense-nan-identity", dense, identity},
	} {
		t.Run(c.name, func(t *testing.T) {
			ms, sites := c.ms, c.sites
			obs.Default.Reset()
			direct := make([][]float64, n)
			for i := range direct {
				direct[i] = make([]float64, n)
				for j := i + 1; j < n; j++ {
					direct[i][j] = PairDistance(ms[i].RTTms, ms[j].RTTms, sites, DiscrepancyExclusion)
				}
			}
			want := pairsFunnel(t)
			for _, workers := range []int{1, 3, 8} {
				obs.Default.Reset()
				dm, err := DistanceMatrixContext(context.Background(), ms, sites, DiscrepancyExclusion, workers)
				if err != nil {
					t.Fatal(err)
				}
				if got := pairsFunnel(t); !reflect.DeepEqual(got, want) {
					t.Fatalf("workers=%d: coloc.pairs %+v, direct calls %+v", workers, got, want)
				}
				for i := 0; i < n; i++ {
					if d := dm.At(i, i); d != 0 {
						t.Fatalf("workers=%d: diagonal %d = %v", workers, i, d)
					}
					for j := i + 1; j < n; j++ {
						if got := dm.At(i, j); math.Float64bits(got) != math.Float64bits(direct[i][j]) {
							t.Fatalf("workers=%d: cell %d,%d = %v, want %v", workers, i, j, got, direct[i][j])
						}
					}
				}
			}
			if nanDrops(want) == 0 {
				t.Fatal("no NaN sample among the pairs")
			}
			for i := 0; i < n; i++ {
				for j := i + 1; j < n; j++ {
					ref, kept := referencePairDistance(ms[i].RTTms, ms[j].RTTms, sites, DiscrepancyExclusion)
					if got := direct[i][j]; !nearReference(got, ref, len(kept)) {
						t.Fatalf("cell %d,%d = %v, want reference %v within %d·2⁻⁵² relative", i, j, got, ref, len(kept))
					}
				}
			}
		})
	}
}

// pairsFunnel returns the coloc.pairs snapshot of the default registry.
func pairsFunnel(t *testing.T) obs.FunnelSnapshot {
	t.Helper()
	for _, s := range obs.Default.FunnelSnapshots() {
		if s.Name == fPairs.Name() {
			return s
		}
	}
	t.Fatal("no coloc.pairs funnel")
	return obs.FunnelSnapshot{}
}

// nanDrops returns the snapshot's nan_rtt drop count.
func nanDrops(s obs.FunnelSnapshot) int64 {
	for _, d := range s.Drops {
		if d.Reason == "nan_rtt" {
			return d.N
		}
	}
	return 0
}

// TestDistanceMatrixFillZeroAlloc guards the reused matrix: once a fill has
// grown its cells and pair scratch, filling every block again allocates
// nothing. (The parallel fan-out's own bookkeeping, per call of
// DistanceMatrixInto, is outside the matrix.)
func TestDistanceMatrixFillZeroAlloc(t *testing.T) {
	ms, sites := syntheticMeasurements(12, 79, 163)
	var m DistMatrix
	var sc PairScratch
	fill := func() {
		m.Reset(len(ms))
		for b := 0; b*pairBlock < len(m.cells); b++ {
			m.fillBlock(b, &sc, ms, sites, DiscrepancyExclusion)
		}
		sc.FlushFunnel()
	}
	fill()
	if n := testing.AllocsPerRun(20, fill); n != 0 {
		t.Fatalf("a warm fill allocates %v times, want 0", n)
	}
}

// TestDistanceMatrixIntoReuse proves a reused matrix (the per-worker
// steady state) produces the same cells as a fresh one, including shrinking
// to a smaller n.
func TestDistanceMatrixIntoReuse(t *testing.T) {
	big, sitesBig := syntheticMeasurements(5, 40, 80)
	small, sitesSmall := syntheticMeasurements(6, 9, 30)
	var m DistMatrix
	ctx := context.Background()
	if err := DistanceMatrixInto(ctx, &m, big, sitesBig, DiscrepancyExclusion, 1); err != nil {
		t.Fatal(err)
	}
	if err := DistanceMatrixInto(ctx, &m, small, sitesSmall, DiscrepancyExclusion, 1); err != nil {
		t.Fatal(err)
	}
	fresh := distanceMatrix(t, small, sitesSmall)
	if m.N() != fresh.N() {
		t.Fatalf("reused N = %d, want %d", m.N(), fresh.N())
	}
	for i := 0; i < m.N(); i++ {
		for j := 0; j < m.N(); j++ {
			if m.At(i, j) != fresh.At(i, j) {
				t.Fatalf("reused cell %d,%d = %v, want %v", i, j, m.At(i, j), fresh.At(i, j))
			}
		}
	}
}

// TestDistanceMatrixCancelledCountsNothing is the satellite fix's guard: a
// fill aborted by context cancellation must return an error and must not
// advance the coloc.distances_computed counter — partial work is not
// completed work in the run manifest.
func TestDistanceMatrixCancelledCountsNothing(t *testing.T) {
	ms, sites := syntheticMeasurements(9, 30, 40)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	// Reset the shared registry so the assertion is absolute, not a delta
	// that depends on which tests ran first.
	obs.Default.Reset()
	if _, err := DistanceMatrixContext(ctx, ms, sites, DiscrepancyExclusion, 2); err == nil {
		t.Fatal("cancelled fill returned no error")
	}
	var m DistMatrix
	if err := DistanceMatrixInto(ctx, &m, ms, sites, DiscrepancyExclusion, 2); err == nil {
		t.Fatal("cancelled Into fill returned no error")
	}
	if n := mDistancesComputed.Value(); n != 0 {
		t.Fatalf("cancelled fill advanced distances_computed to %d", n)
	}
}

// TestDistanceMatrixFunnelDeterministicAcrossWorkers sweeps worker counts
// and asserts the coloc.pairs funnel accounting is byte-identical: the
// counts are integer sums over a fixed pair set, so block scheduling must
// not change them.
func TestDistanceMatrixFunnelDeterministicAcrossWorkers(t *testing.T) {
	ms, sites := syntheticMeasurements(31, 163, 7)
	var ref []byte
	refWorkers := 0
	for _, workers := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		obs.Default.Reset()
		if _, err := DistanceMatrixContext(context.Background(), ms, sites, DiscrepancyExclusion, workers); err != nil {
			t.Fatal(err)
		}
		state, err := json.Marshal(obs.Default.FunnelSnapshots())
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref, refWorkers = state, workers
			continue
		}
		if !bytes.Equal(ref, state) {
			t.Fatalf("coloc.pairs accounting differs between workers=%d and workers=%d:\n%s\nvs\n%s",
				refWorkers, workers, ref, state)
		}
	}
	// And it balances: every considered site sample is kept or attributed.
	obs.Default.Reset()
	if _, err := DistanceMatrixContext(context.Background(), ms, sites, DiscrepancyExclusion, 2); err != nil {
		t.Fatal(err)
	}
	for _, s := range obs.Default.FunnelSnapshots() {
		if s.Name == "coloc.pairs" {
			if !s.Balanced() {
				t.Fatalf("coloc.pairs unbalanced: %+v", s)
			}
			wantIn := int64(len(ms)*(len(ms)-1)/2) * int64(len(sites))
			if s.In != wantIn {
				t.Fatalf("coloc.pairs in = %d, want %d (pairs × sites)", s.In, wantIn)
			}
		}
	}
}

// BenchmarkPairDistance measures the selection kernel at the campaign's
// 163 sites, which every default-scale pair uses, and at sizes bracketing
// it. Like a distance-matrix fill, successive calls see different pairs:
// they cycle through the 2016 pairs of 64 random vectors. Repeating one
// pair would let the branch predictor learn its partition.
func BenchmarkPairDistance(b *testing.B) {
	const vectors = 64
	for _, n := range []int{64, 163, 512} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			r := rngutil.New(11)
			vs := make([][]float64, vectors)
			for v := range vs {
				vs[v] = make([]float64, n)
				for i := range vs[v] {
					vs[v][i] = r.Float64() * 40
				}
			}
			sites := make([]int, n)
			for i := range sites {
				sites[i] = i
			}
			var sc PairScratch
			b.ReportAllocs()
			b.ResetTimer()
			x, y := 0, 1
			for i := 0; i < b.N; i++ {
				sc.PairDistance(vs[x], vs[y], sites, DiscrepancyExclusion)
				if y++; y == vectors {
					x++
					if x == vectors-1 {
						x = 0
					}
					y = x + 1
				}
			}
		})
	}
}

// BenchmarkDistanceMatrix times one default-shaped ISP's fill into a reused
// matrix on one worker: 79 offnets over 163 sites, 3081 pairs, with every
// RTT present, as at an ISP's good sites.
func BenchmarkDistanceMatrix(b *testing.B) {
	r := rngutil.New(13)
	ms := make([]*mlab.Measurement, 79)
	for i := range ms {
		v := make([]float64, 163)
		for s := range v {
			v[s] = r.Float64() * 40
		}
		ms[i] = &mlab.Measurement{RTTms: v}
	}
	sites := make([]int, 163)
	for i := range sites {
		sites[i] = i
	}
	var m DistMatrix
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := DistanceMatrixInto(ctx, &m, ms, sites, DiscrepancyExclusion, 1); err != nil {
			b.Fatal(err)
		}
	}
}
