package obs

import (
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

// TestLineageNilSafety: every method on a nil recorder must no-op — the
// default-off contract call sites rely on.
func TestLineageNilSafety(t *testing.T) {
	var r *LineageRecorder
	r.Record("s", "g", "subj", LineageKept, "reason", func() []LineageKV {
		t.Fatal("evidence builder ran on a nil recorder")
		return nil
	})
	if got := r.Digest(); got != "" {
		t.Fatalf("nil digest = %q, want empty", got)
	}
	if got := r.Records(); got != nil {
		t.Fatalf("nil records = %v, want nil", got)
	}
}

// TestLineageAdmissionOrderInvariance: the retained sample is a bounded
// min-set over the offered identities, so any arrival order — any worker
// interleaving — admits the same records and yields the same digest.
func TestLineageAdmissionOrderInvariance(t *testing.T) {
	type offer struct{ group, subject, reason string }
	var offers []offer
	for g := 0; g < 3; g++ {
		for s := 0; s < 40; s++ {
			offers = append(offers, offer{
				group:   "isp=" + string(rune('A'+g)),
				subject: "10.0.0." + string(rune('0'+s%10)) + string(rune('0'+s/10)),
				reason:  "r" + string(rune('0'+s%3)),
			})
		}
	}
	run := func(perm []int) *LineageRecorder {
		r := NewLineageRecorder()
		for _, i := range perm {
			o := offers[i]
			r.Record("stage", o.group, o.subject, LineageKept, o.reason, func() []LineageKV {
				return []LineageKV{{K: "subject", V: o.subject}}
			})
		}
		return r
	}
	base := make([]int, len(offers))
	for i := range base {
		base[i] = i
	}
	want := run(base)
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 10; trial++ {
		perm := rng.Perm(len(offers))
		got := run(perm)
		if got.Digest() != want.Digest() {
			t.Fatalf("trial %d: digest varies with arrival order", trial)
		}
		if !reflect.DeepEqual(got.Records(), want.Records()) {
			t.Fatalf("trial %d: records vary with arrival order", trial)
		}
	}
	// The default cap bounds each (stage, group)'s sample.
	perGroup := make(map[string]int)
	for _, rec := range want.Records() {
		perGroup[rec.Group]++
	}
	for g, n := range perGroup {
		if n > DefaultLineageCap {
			t.Fatalf("group %q retained %d records, cap is %d", g, n, DefaultLineageCap)
		}
	}
}

// TestLineageDedupe: identically keyed duplicates collapse to one record and
// never double-build evidence once admitted.
func TestLineageDedupe(t *testing.T) {
	r := NewLineageRecorder()
	builds := 0
	for i := 0; i < 5; i++ {
		r.Record("s", "g", "subj", LineageKept, "reason", func() []LineageKV {
			builds++
			return []LineageKV{{K: "k", V: "v"}}
		})
	}
	if got := len(r.Records()); got != 1 {
		t.Fatalf("duplicates produced %d records, want 1", got)
	}
	if builds != 1 {
		t.Fatalf("evidence built %d times for one identity, want 1", builds)
	}
}

// TestLineageJSONLRoundTrip: write → read preserves records and the funnels
// on the summary line and verifies the digest; tampering with any line is
// detected.
func TestLineageJSONLRoundTrip(t *testing.T) {
	r := NewLineageRecorder()
	r.Record("s", "g", "10.0.0.1", LineageKept, "ok", func() []LineageKV {
		return []LineageKV{{K: "why", V: "matched"}}
	})
	r.Record("s", "g", "10.0.0.2", LineageDropped, "bad", nil)

	funnels := []FunnelSnapshot{{Name: "s", In: 2, Out: 1, Drops: []FunnelDrop{{Reason: "bad", N: 1}}}}
	path := filepath.Join(t.TempDir(), "lineage.jsonl")
	if err := WriteLineageFile(path, r, funnels); err != nil {
		t.Fatal(err)
	}
	f, err := ReadLineageFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(f.Records, r.Records()) {
		t.Fatalf("round trip changed records:\n%+v\nvs\n%+v", f.Records, r.Records())
	}
	if f.Summary.Digest != r.Digest() {
		t.Fatalf("summary digest %q != recorder digest %q", f.Summary.Digest, r.Digest())
	}
	if !reflect.DeepEqual(f.Summary.Funnels, funnels) {
		t.Fatalf("summary funnels = %+v, want %+v", f.Summary.Funnels, funnels)
	}

	// Flip one evidence byte: the digest check must fail loudly.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	tampered := strings.Replace(string(raw), "matched", "matchee", 1)
	if tampered == string(raw) {
		t.Fatal("tamper target not found")
	}
	if err := os.WriteFile(path, []byte(tampered), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadLineageFile(path); err == nil {
		t.Fatal("tampered lineage file read back without error")
	}

	// A capture missing its summary line is an error, not a silent success.
	lines := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	noSummary := strings.Join(lines[:len(lines)-1], "\n") + "\n"
	if err := os.WriteFile(path, []byte(noSummary), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadLineageFile(path); err == nil {
		t.Fatal("summary-less lineage file read back without error")
	}
}

// TestLineageManifestDiff: runsdiff treats a lineage digest difference as
// determinism-relevant drift.
func TestLineageManifestDiff(t *testing.T) {
	base := func() *Manifest { return &Manifest{LineageDigest: "aaaa"} }
	if res := compare(t, base(), base()); res.HasDrift() {
		t.Fatalf("equal lineage reported drift: %v", res.Drift)
	}
	digest := base()
	digest.LineageDigest = "bbbb"
	if res := compare(t, base(), digest); !res.HasDrift() {
		t.Fatal("digest mismatch not reported as drift")
	}
}

// TestLineageManifestBuild: an active recorder's digest lands in the
// manifest; none leaves it empty.
func TestLineageManifestBuild(t *testing.T) {
	SetLineage(nil)
	m := BuildManifest("test", 42, "tiny", NewTracer(), time.Now())
	if m.LineageDigest != "" {
		t.Fatalf("lineage-off manifest carries a lineage digest: %q", m.LineageDigest)
	}
	r := NewLineageRecorder()
	r.Record("s", "g", "subj", LineageKept, "ok", nil)
	SetLineage(r)
	defer SetLineage(nil)
	m = BuildManifest("test", 42, "tiny", NewTracer(), time.Now())
	if m.LineageDigest == "" || m.LineageDigest != r.Digest() {
		t.Fatalf("lineage-on manifest digest = %q, want %q", m.LineageDigest, r.Digest())
	}
}

// TestLineageMarkdown: the report appendix renders each stage's heading and
// a bounded sample per stage.
func TestLineageMarkdown(t *testing.T) {
	if LineageMarkdown(nil, 2) != "" {
		t.Fatal("nil recorder rendered a non-empty appendix")
	}
	r := NewLineageRecorder()
	for i := 0; i < 3; i++ {
		subj := "10.0.0." + string(rune('1'+i))
		r.Record("s", "g"+string(rune('0'+i)), subj, LineageKept, "ok", nil)
	}
	md := LineageMarkdown(r, 1)
	if !strings.Contains(md, "**s**") {
		t.Fatalf("stage heading missing:\n%s", md)
	}
	if got := strings.Count(md, "- `10.0.0."); got != 1 {
		t.Fatalf("sample not bounded to 1 per stage (got %d):\n%s", got, md)
	}
}
