package obs

import (
	"math"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestRegistryReset(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("test.reset_counter", "")
	h := r.NewHistogram("test.reset_hist", "", []float64{1, 10})
	f := r.NewFunnel("test.reset_funnel", "")
	drop := f.Reason("gone")

	c.Add(5)
	h.Observe(2)
	h.Observe(20)
	f.In(4)
	f.Out(3)
	drop.Inc()

	r.Reset()

	if c.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Fatalf("metrics survived Reset: c=%d hn=%d hsum=%v",
			c.Value(), h.Count(), h.Sum())
	}
	if _, counts := h.Buckets(); counts[0]+counts[1]+counts[2] != 0 {
		t.Fatalf("histogram buckets survived Reset: %v", counts)
	}
	s := f.Snapshot()
	if s.In != 0 || s.Out != 0 || s.Dropped() != 0 {
		t.Fatalf("funnel survived Reset: %+v", s)
	}

	// Instances stay registered and usable: package-level metric vars keep
	// working after a test resets the registry.
	c.Inc()
	if r.NewCounter("test.reset_counter", "") != c || c.Value() != 1 {
		t.Fatal("Reset unregistered the counter")
	}
}

func TestSnapshotIncludesHelp(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("test.help_counter", "counts things")
	r.NewHistogram("test.help_hist", "buckets things", []float64{1})

	snap := r.Snapshot()
	for name, want := range map[string]string{
		"test.help_counter": "counts things",
		"test.help_hist":    "buckets things",
	} {
		if snap[name].Help != want {
			t.Fatalf("%s help = %q, want %q", name, snap[name].Help, want)
		}
	}

	// Help travels into the manifest (and from there into runsdiff output).
	mc := NewCounter("test.manifest_help", "documented in the manifest")
	mc.Inc()
	m := BuildManifest("test", 1, "tiny", NewTracer(), time.Time{})
	if m.Metrics["test.manifest_help"].Help != "documented in the manifest" {
		t.Fatalf("manifest lost help: %+v", m.Metrics["test.manifest_help"])
	}

	// Accessors for direct use.
	if mc.Help() != "documented in the manifest" {
		t.Fatalf("Counter.Help = %q", mc.Help())
	}
	var nilC *Counter
	if nilC.Help() != "" {
		t.Fatal("nil Counter.Help must be empty")
	}
}

// TestConcurrentHistogramSum drives histograms from many goroutines at
// once: per value through Observe, in batches through HistogramBatch (each
// publisher flushing every 64 values and once at the end, with NaNs mixed
// in), and both into one histogram. Under -race (make race-obs runs it ten
// times) it exercises both paths' atomic adds; each histogram must lose no
// observation and end with the buckets, count and exact sum of observing
// every value once, serially.
func TestConcurrentHistogramSum(t *testing.T) {
	const workers = 8
	const per = 5000
	bounds := []float64{2, 4, 6}
	value := func(i int) float64 { return float64(i%7 + 1) } // 1..7, exactly representable

	// The serial reference, checked against totals computed by hand: every
	// value lands in the first bucket whose bound is >= it, and the sum of
	// small integers is exact.
	r := NewRegistry()
	want := r.NewHistogram("test.serial", "", bounds)
	wantCounts := make([]int64, len(bounds)+1)
	wantSum := 0.0
	for w := 0; w < workers; w++ {
		for i := 0; i < per; i++ {
			v := value(i)
			want.Observe(v)
			k := 0
			for k < len(bounds) && v > bounds[k] {
				k++
			}
			wantCounts[k]++
			wantSum += v
		}
	}
	if _, counts := want.Buckets(); !reflect.DeepEqual(counts, wantCounts) || want.Sum() != wantSum {
		t.Fatalf("serial Observe: buckets %v, sum %v; want %v, %v", counts, want.Sum(), wantCounts, wantSum)
	}

	publish := func(h *Histogram, batched bool) {
		if !batched {
			for i := 0; i < per; i++ {
				h.Observe(value(i))
			}
			return
		}
		b := h.Batch()
		for i := 0; i < per; i++ {
			b.Observe(value(i))
			if i%13 == 0 {
				b.Observe(math.NaN())
			}
			if i%64 == 63 {
				b.Flush()
			}
		}
		b.Flush()
	}
	for _, tc := range []struct {
		name    string
		batched func(w int) bool
	}{
		{"observe", func(int) bool { return false }},
		{"batch", func(int) bool { return true }},
		{"mixed", func(w int) bool { return w%2 == 1 }},
	} {
		h := r.NewHistogram("test.cas_sum_"+tc.name, "", bounds)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(batched bool) {
				defer wg.Done()
				publish(h, batched)
			}(tc.batched(w))
		}
		wg.Wait()

		if h.Count() != workers*per {
			t.Fatalf("%s: count = %d, want %d", tc.name, h.Count(), workers*per)
		}
		if h.Sum() != wantSum {
			t.Fatalf("%s: sum = %v, want %v (lost updates)", tc.name, h.Sum(), wantSum)
		}
		if _, counts := h.Buckets(); !reflect.DeepEqual(counts, wantCounts) {
			t.Fatalf("%s: buckets = %v, want %v", tc.name, counts, wantCounts)
		}
	}
}

// TestHistogramSumOrderFree: the sum is a function of the observed values,
// not of the order observers arrive in — the property runsdiff's exact sum
// comparison rests on. A float accumulator fails it: a running total near
// 1e9 drops the low digits of the small terms, differently per order.
func TestHistogramSumOrderFree(t *testing.T) {
	vals := []float64{0.1, 1e9, 0.2, -1e9, 0.3, 123.456789}
	sum := func(order []int) float64 {
		h := NewRegistry().NewHistogram("test.order_sum", "", []float64{1})
		for _, i := range order {
			h.Observe(vals[i])
		}
		return h.Sum()
	}
	fwd, rev := sum([]int{0, 1, 2, 3, 4, 5}), sum([]int{5, 4, 3, 2, 1, 0})
	if fwd != rev {
		t.Fatalf("sum depends on observation order: %v vs %v", fwd, rev)
	}
	if want := 124.056789; fwd != want {
		t.Fatalf("sum = %v, want %v", fwd, want)
	}
}

// TestObsPageEscapesUntrustedStrings guards the debug page against markup
// injection from span attribute values and metric names.
func TestObsPageEscapesUntrustedStrings(t *testing.T) {
	tr := NewTracer()
	sp := tr.Start("stage-<script>alert(1)</script>")
	sp.SetAttr("payload", `<img src=x onerror="alert(1)">`)
	sp.End()

	rec := httptest.NewRecorder()
	writeObsPage(rec, tr, time.Now())
	body := rec.Body.String()
	if strings.Contains(body, "<script>alert(1)") || strings.Contains(body, "<img src=x") {
		t.Fatalf("unescaped markup reached the page:\n%s", body)
	}
	if !strings.Contains(body, "&lt;script&gt;") {
		t.Fatalf("span name not rendered escaped:\n%s", body)
	}
	if !strings.Contains(body, "payload=&lt;img") {
		t.Fatalf("span attr not rendered escaped:\n%s", body)
	}
}
