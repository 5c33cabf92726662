package obs

import (
	"encoding/json"
	"math"
	"net/http"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestSpanNesting(t *testing.T) {
	tr := NewTracer()
	root := tr.Start("pipeline/colocation")
	ping := tr.Start("ping-campaign")
	ping.SetAttr("rtts", 163)
	ping.End()
	cluster := tr.Start("optics-cluster")
	inner := cluster.Child("xi=0.1")
	inner.End()
	cluster.End()
	root.End()
	second := tr.Start("pipeline/table1")
	second.End()

	roots := tr.Roots()
	if len(roots) != 2 {
		t.Fatalf("got %d roots, want 2", len(roots))
	}
	snap := tr.Snapshot(time.Time{})
	if snap[0].Name != "pipeline/colocation" || len(snap[0].Children) != 2 {
		t.Fatalf("bad root snapshot: %+v", snap[0])
	}
	if snap[0].Children[1].Children[0].Name != "xi=0.1" {
		t.Fatalf("Child() span not nested: %+v", snap[0].Children[1])
	}
	if got := snap[0].Attrs; got != nil {
		t.Fatalf("root has unexpected attrs: %v", got)
	}
	if snap[0].Children[0].Attrs["rtts"] != 163 {
		t.Fatalf("attr lost: %v", snap[0].Children[0].Attrs)
	}
	if n := StageCount(snap); n != 5 {
		t.Fatalf("StageCount = %d, want 5", n)
	}
}

func TestSpanTimingMonotonic(t *testing.T) {
	tr := NewTracer()
	root := tr.Start("root")
	child := tr.Start("child")
	time.Sleep(2 * time.Millisecond)
	child.End()
	root.End()

	if child.Elapsed() <= 0 {
		t.Fatal("child duration not positive")
	}
	if root.Elapsed() < child.Elapsed() {
		t.Fatalf("parent %v shorter than child %v", root.Elapsed(), child.Elapsed())
	}
	snap := tr.Snapshot(time.Time{})
	if snap[0].Children[0].StartMS < snap[0].StartMS {
		t.Fatal("child started before parent")
	}
	// End twice: duration must freeze.
	d := child.Elapsed()
	child.End()
	if child.Elapsed() != d {
		t.Fatal("double End changed duration")
	}
}

func TestNilSafety(t *testing.T) {
	var tr *Tracer
	s := tr.Start("nope")
	if s != nil {
		t.Fatal("nil tracer must hand out nil spans")
	}
	// All of these must be no-ops, not panics.
	s.SetAttr("k", 1)
	c := s.Child("child")
	c.End()
	s.End()
	if s.Elapsed() != 0 || s.Name() != "" {
		t.Fatal("nil span leaked state")
	}
	if tr.Snapshot(time.Time{}) != nil || tr.Roots() != nil {
		t.Fatal("nil tracer returned spans")
	}
	var cnt *Counter
	cnt.Inc()
	var h *Histogram
	h.Observe(1)
	b := h.Batch()
	b.Observe(1)
	if n := b.Flush(); n != 0 {
		t.Fatalf("nil histogram's batch published %d observations", n)
	}
}

// TestHistogramBuckets checks bucket placement, count and sum on both
// observe paths, per value and batched. NaN and ±Inf, interleaved with the
// values, must change nothing: converting them to the fixed-point sum term
// would add −2⁶³ on amd64.
func TestHistogramBuckets(t *testing.T) {
	vals := []float64{0.5, 1.0, 1.0001, 5.0, 9.99, 10.0, 10.01, 400}
	nonFinite := []float64{math.NaN(), math.Inf(1), math.Inf(-1)}
	for _, path := range []struct {
		name    string
		observe func(h *Histogram, vs []float64)
	}{
		{"observe", func(h *Histogram, vs []float64) {
			for _, v := range vs {
				h.Observe(v)
			}
		}},
		{"batch", func(h *Histogram, vs []float64) {
			b := h.Batch()
			for _, v := range vs {
				b.Observe(v)
			}
			if n := b.Flush(); n != h.Count() {
				t.Errorf("Flush reports %d observations, histogram counts %d", n, h.Count())
			}
			if n := b.Flush(); n != 0 {
				t.Errorf("second Flush published %d observations, want 0", n)
			}
		}},
	} {
		t.Run(path.name, func(t *testing.T) {
			h := NewRegistry().NewHistogram("ping.rtt_ms", "", []float64{1, 5, 10})
			var vs []float64
			for i, v := range vals {
				vs = append(vs, v, nonFinite[i%len(nonFinite)])
			}
			path.observe(h, vs)
			// Boundary values land in the bucket whose upper bound equals them.
			bounds, counts := h.Buckets()
			wantBounds := []float64{1, 5, 10, math.Inf(1)}
			if !reflect.DeepEqual(bounds, wantBounds) {
				t.Fatalf("bounds = %v, want %v", bounds, wantBounds)
			}
			wantCounts := []int64{2, 2, 2, 2} // {0.5,1} {1.0001,5} {9.99,10} {10.01,400}
			if !reflect.DeepEqual(counts, wantCounts) {
				t.Fatalf("counts = %v, want %v", counts, wantCounts)
			}
			if h.Count() != 8 {
				t.Fatalf("Count = %d, want 8", h.Count())
			}
			wantSum := 0.5 + 1 + 1.0001 + 5 + 9.99 + 10 + 10.01 + 400
			if math.Abs(h.Sum()-wantSum) > 1e-9 {
				t.Fatalf("Sum = %v, want %v", h.Sum(), wantSum)
			}

			// A NaN right after a value leaves that value's count and sum.
			h = NewRegistry().NewHistogram("ping.rtt_ms", "", []float64{1, 5, 10})
			path.observe(h, []float64{2, math.NaN()})
			if h.Count() != 1 || h.Sum() != 2 {
				t.Fatalf("after 2 and NaN: Count = %d, Sum = %v, want 1 and 2", h.Count(), h.Sum())
			}
		})
	}
}

func TestConcurrentCounters(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("test.events_counted", "")
	h := r.NewHistogram("test.values_observed", "", []float64{10, 100})
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
				h.Observe(float64(i % 200))
			}
		}(w)
	}
	wg.Wait()
	if c.Value() != workers*per {
		t.Fatalf("counter = %d, want %d", c.Value(), workers*per)
	}
	if h.Count() != workers*per {
		t.Fatalf("histogram count = %d, want %d", h.Count(), workers*per)
	}
	// Registration is idempotent: same name, same metric.
	if r.NewCounter("test.events_counted", "") != c {
		t.Fatal("re-registering returned a different counter")
	}
}

func TestManifestRoundTrip(t *testing.T) {
	tr := NewTracer()
	start := time.Now()
	root := tr.Start("table1")
	stage := tr.Start("scan/2023")
	stage.SetAttr("records", 1234)
	stage.End()
	root.End()
	NewCounter("test.manifest_counted", "").Add(7)

	m := BuildManifest("reproduce", 42, "tiny", tr, start)
	if m.GoVersion == "" || m.Seed != 42 || m.Scale != "tiny" {
		t.Fatalf("bad provenance: %+v", m)
	}
	if m.StageCount() != 2 {
		t.Fatalf("StageCount = %d, want 2", m.StageCount())
	}

	path := filepath.Join(t.TempDir(), "manifest.json")
	if err := m.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	// Round-trip fidelity: same JSON both ways. (JSON numbers decode as
	// float64, so compare serialized forms.)
	a, _ := json.Marshal(m)
	b, _ := json.Marshal(got)
	if string(a) != string(b) {
		t.Fatalf("round trip changed manifest:\n%s\n%s", a, b)
	}
	// The counter lives on the shared Default registry, so each run of the
	// test adds 7 more: check the manifest saw the add and the file kept it.
	want := m.Metrics["test.manifest_counted"].Value
	if read := got.Metrics["test.manifest_counted"].Value; want < 7 || read != want {
		t.Fatalf("metric lost in round trip: wrote %v, read %v", want, read)
	}
}

func TestServeDebug(t *testing.T) {
	tr := NewTracer()
	sp := tr.Start("stage-one")
	sp.End()
	addr, stop, err := ServeDebug("127.0.0.1:0", tr)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	for _, path := range []string{"/debug/obs", "/debug/vars", "/debug/pprof/"} {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		resp.Body.Close()
	}
	resp, err := http.Get("http://" + addr + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var vars map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&vars); err != nil {
		t.Fatal(err)
	}
	if _, ok := vars["offnetrisk_metrics"]; !ok {
		keys := make([]string, 0, len(vars))
		for k := range vars {
			keys = append(keys, k)
		}
		t.Fatalf("expvar missing offnetrisk_metrics; has %s", strings.Join(keys, ", "))
	}
}
