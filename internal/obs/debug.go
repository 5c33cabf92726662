package obs

import (
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
)

// ServeDebug starts the opt-in debug endpoint on addr (e.g. "localhost:6060")
// and returns the bound address. It serves the Go runtime's profiles, the
// full net/http/pprof suite under /debug/pprof/, and nothing else: the
// run's metrics, funnels and spans are read from the manifest, the -trace
// export and the -events stream.
//
// The returned close function shuts the server down and releases the
// listener; callers hook it to context cancellation (or defer it) so the
// goroutine does not outlive the run. Errors after startup are dropped,
// matching the endpoint's diagnostic-only role.
func ServeDebug(addr string) (string, func(), error) {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)

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
