package obs

import (
	"bufio"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// Line grammars of the 0.0.4 text format: comment lines and samples with an
// optional label set. Kept deliberately strict — a scraper's lexer is.
var (
	promHelpRe   = regexp.MustCompile(`^# HELP ([a-zA-Z_:][a-zA-Z0-9_:]*) (.*)$`)
	promTypeRe   = regexp.MustCompile(`^# TYPE ([a-zA-Z_:][a-zA-Z0-9_:]*) (counter|gauge|histogram|summary|untyped)$`)
	promSampleRe = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^{}]*\})? (\+Inf|-Inf|NaN|[-+0-9.eE]+)$`)
	promLabelRe  = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\\n])*"$`)
)

// validatePromText parses an exposition document the way a scraper's lexer
// would and returns the sample lines grouped per family name (histogram
// series fold into their base family).
func validatePromText(t *testing.T, r io.Reader) map[string][]string {
	t.Helper()
	families := make(map[string][]string)
	typed := make(map[string]string)
	sc := bufio.NewScanner(r)
	line := 0
	for sc.Scan() {
		line++
		text := sc.Text()
		if text == "" {
			continue
		}
		if strings.HasPrefix(text, "#") {
			if m := promHelpRe.FindStringSubmatch(text); m != nil {
				continue
			}
			if m := promTypeRe.FindStringSubmatch(text); m != nil {
				typed[m[1]] = m[2]
				continue
			}
			t.Fatalf("line %d: malformed comment line %q", line, text)
		}
		m := promSampleRe.FindStringSubmatch(text)
		if m == nil {
			t.Fatalf("line %d: malformed sample line %q", line, text)
		}
		name, labels := m[1], m[2]
		if labels != "" {
			for _, pair := range strings.Split(labels[1:len(labels)-1], ",") {
				if !promLabelRe.MatchString(pair) {
					t.Fatalf("line %d: malformed label %q", line, pair)
				}
			}
		}
		base := name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			trimmed := strings.TrimSuffix(name, suffix)
			if trimmed != name {
				if _, ok := typed[trimmed]; ok && typed[trimmed] == "histogram" {
					base = trimmed
				}
			}
		}
		if _, ok := typed[base]; !ok {
			t.Fatalf("line %d: sample %q has no preceding # TYPE", line, name)
		}
		families[base] = append(families[base], text)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return families
}

func TestWritePrometheusFormat(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("ping.rtts_measured", "RTT summaries kept").Add(42)
	h := r.NewHistogram("ping.rtt_ms", "RTT distribution", []float64{1, 5, 10})
	for _, v := range []float64{0.5, 3, 7, 100} {
		h.Observe(v)
	}
	f := r.NewFunnel("ping.filter", "campaign filter")
	f.In(10)
	f.Out(8)
	f.Drop("unresponsive", 2)

	var b strings.Builder
	r.WritePrometheus(&b)
	families := validatePromText(t, strings.NewReader(b.String()))

	// Registry dots map to underscores.
	if _, ok := families["ping_rtts_measured"]; !ok {
		t.Fatalf("counter family missing; have %v", families)
	}
	if got := families["ping_rtts_measured"]; len(got) != 1 || got[0] != "ping_rtts_measured 42" {
		t.Fatalf("counter sample = %q", got)
	}

	// Histogram: cumulative buckets ending at +Inf == _count, plus _sum.
	hist := families["ping_rtt_ms"]
	wantHist := []string{
		`ping_rtt_ms_bucket{le="1"} 1`,
		`ping_rtt_ms_bucket{le="5"} 2`,
		`ping_rtt_ms_bucket{le="10"} 3`,
		`ping_rtt_ms_bucket{le="+Inf"} 4`,
		`ping_rtt_ms_sum 110.5`,
		`ping_rtt_ms_count 4`,
	}
	if len(hist) != len(wantHist) {
		t.Fatalf("histogram series = %q, want %q", hist, wantHist)
	}
	for i := range wantHist {
		if hist[i] != wantHist[i] {
			t.Fatalf("histogram series[%d] = %q, want %q", i, hist[i], wantHist[i])
		}
	}

	// Funnels export as three labelled counter families.
	if got := families["funnel_in_total"]; len(got) != 1 || got[0] != `funnel_in_total{funnel="ping.filter"} 10` {
		t.Fatalf("funnel_in_total = %q", got)
	}
	if got := families["funnel_dropped_total"]; len(got) != 1 ||
		got[0] != `funnel_dropped_total{funnel="ping.filter",reason="unresponsive"} 2` {
		t.Fatalf("funnel_dropped_total = %q", got)
	}

	// Deterministic: equal registry states render byte-identically.
	var b2 strings.Builder
	r.WritePrometheus(&b2)
	if b.String() != b2.String() {
		t.Fatal("two renders of the same registry differ")
	}
}

func TestPromEscaping(t *testing.T) {
	r := NewRegistry()
	r.NewCounter(`weird.name-with"chars`, "help with \\backslash and\nnewline").Inc()
	f := r.NewFunnel("funnel\"with\\quotes", "")
	f.In(1)
	f.Drop("reason\nwith_newline", 1)

	var b strings.Builder
	r.WritePrometheus(&b)
	validatePromText(t, strings.NewReader(b.String()))

	out := b.String()
	if !strings.Contains(out, "weird_name_with_chars 1") {
		t.Fatalf("invalid metric name not sanitized:\n%s", out)
	}
	if !strings.Contains(out, `help with \\backslash and\nnewline`) {
		t.Fatalf("help not escaped:\n%s", out)
	}
	if !strings.Contains(out, `funnel="funnel\"with\\quotes"`) {
		t.Fatalf("label value not escaped:\n%s", out)
	}
}

func TestPromHandler(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("test.requests_served", "requests").Add(3)
	srv := httptest.NewServer(PromHandler(r))
	defer srv.Close()

	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != PromContentType {
		t.Fatalf("Content-Type = %q, want %q", ct, PromContentType)
	}
	families := validatePromText(t, resp.Body)
	if _, ok := families["test_requests_served"]; !ok {
		t.Fatalf("missing family; have %v", families)
	}
}

// TestPromFloatFormats pins the number spellings scrapers accept.
func TestPromFloatFormats(t *testing.T) {
	for v, want := range map[float64]string{
		1.5: "1.5", 42: "42", 0: "0",
	} {
		if got := promFloat(v); got != want {
			t.Fatalf("promFloat(%v) = %q, want %q", v, got, want)
		}
		if _, err := strconv.ParseFloat(promFloat(v), 64); err != nil {
			t.Fatalf("promFloat(%v) unparseable: %v", v, err)
		}
	}
	if got := promFloat(math.Inf(1)); got != "+Inf" {
		t.Fatalf("promFloat(+Inf) = %q", got)
	}
}
