package coloc

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"sort"
	"testing"

	"offnetrisk/internal/mlab"
	"offnetrisk/internal/obs"
	"offnetrisk/internal/rngutil"
)

// referencePairDistance is the original allocate-and-fully-sort
// implementation, kept verbatim as the differential oracle for the
// selection-based kernel.
func referencePairDistance(a, b []float64, sites []int, exclude float64) float64 {
	diffs := make([]float64, 0, len(sites))
	for _, si := range sites {
		x, y := a[si], b[si]
		if math.IsNaN(x) || math.IsNaN(y) {
			continue
		}
		diffs = append(diffs, math.Abs(x-y))
	}
	if len(diffs) == 0 {
		return math.Inf(1)
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
	return sum / float64(keep)
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

// TestPairDistanceMatchesReference is the differential proof: the
// quickselect kernel must reproduce the sort-based reference bit for bit on
// 1000 seeded random inputs, including tie-heavy ones, with one scratch
// reused across every case (the steady-state usage).
func TestPairDistanceMatchesReference(t *testing.T) {
	var sc PairScratch
	for seed := int64(0); seed < 1000; seed++ {
		a, b, sites, exclude := randomPair(seed)
		want := referencePairDistance(a, b, sites, exclude)
		got := sc.PairDistance(a, b, sites, exclude)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("seed %d: got %v, want %v (n=%d exclude=%v)", seed, got, want, len(sites), exclude)
		}
		if pkg := PairDistance(a, b, sites, exclude); math.Float64bits(pkg) != math.Float64bits(want) {
			t.Fatalf("seed %d: package-level PairDistance %v, want %v", seed, pkg, want)
		}
	}
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
// fill cell by cell against direct PairDistance calls, across worker counts
// and at a size large enough to span multiple blocks (n=70 → 2415 pairs >
// one 2048-cell block).
func TestDistanceMatrixBlocksMatchPairDistance(t *testing.T) {
	ms, sites := syntheticMeasurements(3, 70, 60)
	want := distanceMatrix(t, ms, sites)
	for _, workers := range []int{1, 3, 8} {
		dm, err := DistanceMatrixContext(context.Background(), ms, sites, DiscrepancyExclusion, workers)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < len(ms); i++ {
			for j := 0; j < len(ms); j++ {
				if math.Float64bits(dm.At(i, j)) != math.Float64bits(want.At(i, j)) {
					t.Fatalf("workers=%d: cell %d,%d = %v, want %v", workers, i, j, dm.At(i, j), want.At(i, j))
				}
			}
		}
	}
	for i := 0; i < len(ms); i++ {
		for j := i + 1; j < len(ms); j++ {
			ref := referencePairDistance(ms[i].RTTms, ms[j].RTTms, sites, DiscrepancyExclusion)
			if math.Float64bits(want.At(i, j)) != math.Float64bits(ref) {
				t.Fatalf("cell %d,%d = %v, want reference %v", i, j, want.At(i, j), ref)
			}
		}
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

// BenchmarkPairDistance measures the selection kernel at vector sizes
// bracketing the campaign's 163 usable sites.
func BenchmarkPairDistance(b *testing.B) {
	for _, n := range []int{64, 512} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			r := rngutil.New(11)
			a := make([]float64, n)
			c := make([]float64, n)
			sites := make([]int, n)
			for i := 0; i < n; i++ {
				a[i] = r.Float64() * 40
				c[i] = r.Float64() * 40
				sites[i] = i
			}
			var sc PairScratch
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sc.PairDistance(a, c, sites, DiscrepancyExclusion)
			}
		})
	}
}
