package obs

import (
	"expvar"
	"fmt"
	"html"
	"net"
	"net/http"
	"net/http/pprof"
	"sort"
	"sync"
	"time"
)

// ServeDebug starts the opt-in debug endpoint on addr (e.g. "localhost:6060")
// and returns the bound address. It serves:
//
//	/debug/pprof/   — the full net/http/pprof suite
//	/debug/vars     — expvar, including the offnetrisk metrics registry
//	/debug/obs      — a live HTML span/progress + metrics + funnels page
//	/metrics        — Prometheus text exposition (format 0.0.4)
//
// The tracer may be nil (the page then shows metrics only). The returned
// close function shuts the server down and releases the listener; callers
// hook it to context cancellation (or defer it) so the goroutine does not
// outlive the run. Errors after startup are dropped, matching the
// endpoint's diagnostic-only role.
func ServeDebug(addr string, tr *Tracer) (string, func(), error) {
	PublishExpvar()
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/debug/vars", expvar.Handler())
	mux.Handle("/metrics", PromHandler(Default))
	start := time.Now()
	mux.HandleFunc("/debug/obs", func(w http.ResponseWriter, r *http.Request) {
		writeObsPage(w, tr, start)
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		http.Redirect(w, r, "/debug/obs", http.StatusFound)
	})

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, fmt.Errorf("obs: debug listen %s: %w", addr, err)
	}
	srv := &http.Server{Handler: mux}
	go func() { _ = srv.Serve(ln) }()
	var once sync.Once
	stop := func() { once.Do(func() { _ = srv.Close() }) }
	return ln.Addr().String(), stop, nil
}

// writeObsPage renders the live span tree and metric values. It refreshes
// itself every 2 s so a running pipeline reads as a progress page.
func writeObsPage(w http.ResponseWriter, tr *Tracer, start time.Time) {
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	fmt.Fprint(w, `<!doctype html><meta http-equiv="refresh" content="2">`)
	fmt.Fprint(w, `<title>offnetrisk /debug/obs</title><style>
body{font-family:monospace;margin:2em}table{border-collapse:collapse}
td,th{padding:2px 10px;text-align:left;border-bottom:1px solid #ddd}
.open{color:#b50}.done{color:#060}</style>`)
	fmt.Fprintf(w, "<h1>offnetrisk run — up %s</h1>", time.Since(start).Round(time.Millisecond))

	fmt.Fprint(w, "<h2>stages</h2>")
	spans := tr.Snapshot(start)
	if len(spans) == 0 {
		fmt.Fprint(w, "<p>no spans recorded (tracer disabled or run not started)</p>")
	} else {
		fmt.Fprint(w, "<table><tr><th>stage</th><th>state</th><th>ms</th><th>alloc</th><th>attrs</th></tr>")
		for _, s := range spans {
			writeSpanRows(w, s, 0)
		}
		fmt.Fprint(w, "</table>")
	}

	fmt.Fprint(w, "<h2>metrics</h2><table><tr><th>name</th><th>type</th><th>value</th></tr>")
	snap := Default.Snapshot()
	names := make([]string, 0, len(snap))
	for n := range snap {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := snap[n]
		val := fmt.Sprintf("%.6g", m.Value)
		if m.Type == "histogram" {
			val = fmt.Sprintf("n=%d sum=%.6g", m.Count, m.Value)
		}
		fmt.Fprintf(w, "<tr><td>%s</td><td>%s</td><td>%s</td></tr>",
			html.EscapeString(n), m.Type, val)
	}
	fmt.Fprint(w, "</table>")

	if funnels := Default.FunnelSnapshots(); len(funnels) > 0 {
		fmt.Fprint(w, "<h2>funnels</h2><table><tr><th>stage</th><th>in</th><th>kept</th><th>dropped</th><th>drop breakdown</th></tr>")
		for _, f := range funnels {
			breakdown := "—"
			if len(f.Drops) > 0 {
				breakdown = ""
				for i, d := range f.Drops {
					if i > 0 {
						breakdown += ", "
					}
					breakdown += fmt.Sprintf("%s=%d", html.EscapeString(d.Reason), d.N)
				}
			}
			fmt.Fprintf(w, "<tr><td>%s</td><td>%d</td><td>%d</td><td>%d</td><td>%s</td></tr>",
				html.EscapeString(f.Name), f.In, f.Out, f.Dropped(), breakdown)
		}
		fmt.Fprint(w, "</table>")
	}

	if lr := ActiveLineage(); lr != nil {
		writeLineageSection(w, lr)
	}

	fmt.Fprint(w, "<p><a href='/debug/pprof/'>pprof</a> · <a href='/debug/vars'>expvar</a> · <a href='/metrics'>prometheus</a></p>")
}

// writeLineageSection renders the active lineage recorder's sampled
// evidence records; their stages' counts are the funnel table above.
// Subjects, reasons, and evidence values are caller-supplied strings —
// escape everything.
func writeLineageSection(w http.ResponseWriter, lr *LineageRecorder) {
	recs := lr.Records()
	if len(recs) == 0 {
		return
	}
	fmt.Fprint(w, "<h2>lineage</h2>")
	fmt.Fprintf(w, "<h3>sampled decisions (%d) — digest %s</h3>", len(recs), html.EscapeString(lr.Digest()))
	fmt.Fprint(w, "<table><tr><th>stage</th><th>group</th><th>subject</th><th>outcome</th><th>reason</th><th>evidence</th></tr>")
	for _, d := range recs {
		ev := ""
		for i, kv := range d.Evidence {
			if i > 0 {
				ev += " "
			}
			ev += html.EscapeString(kv.K) + "=" + html.EscapeString(kv.V)
		}
		fmt.Fprintf(w, "<tr><td>%s</td><td>%s</td><td>%s</td><td>%s</td><td>%s</td><td>%s</td></tr>",
			html.EscapeString(d.Stage), html.EscapeString(d.Group), html.EscapeString(d.Subject),
			html.EscapeString(d.Outcome), html.EscapeString(d.ReasonCode), ev)
	}
	fmt.Fprint(w, "</table>")
}

func writeSpanRows(w http.ResponseWriter, s SpanSnapshot, depth int) {
	indent := ""
	for i := 0; i < depth; i++ {
		indent += "&nbsp;&nbsp;"
	}
	state, class := "running", "open"
	if s.Ended {
		state, class = "done", "done"
	}
	// Attribute values are caller-supplied and may contain markup; escape
	// both keys and rendered values before they reach the page.
	attrs := ""
	if len(s.Attrs) > 0 {
		keys := make([]string, 0, len(s.Attrs))
		for k := range s.Attrs {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for i, k := range keys {
			if i > 0 {
				attrs += " "
			}
			attrs += html.EscapeString(k) + "=" + html.EscapeString(fmt.Sprint(s.Attrs[k]))
		}
	}
	fmt.Fprintf(w, "<tr><td>%s%s</td><td class=%q>%s</td><td>%.1f</td><td>%dB</td><td>%s</td></tr>",
		indent, html.EscapeString(s.Name), class, state, s.DurMS, s.AllocBytes, attrs)
	for _, c := range s.Children {
		writeSpanRows(w, c, depth+1)
	}
}
