package telemetry

import (
	"net/http"
	"net/http/pprof"
	"strings"
)

// Handler returns an http.Handler serving the registry in the Prometheus
// text exposition format. Valid on a nil registry (serves an empty body),
// so callers don't need to special-case disabled telemetry.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		var b strings.Builder
		r.WritePrometheus(&b)
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_, _ = w.Write([]byte(b.String()))
	})
}

// MountPprof wires the standard pprof handlers under /debug/pprof/ on
// mux. The routes are registered explicitly rather than via the
// net/http/pprof side-effect import so they land on this mux, not
// http.DefaultServeMux.
func MountPprof(mux *http.ServeMux) {
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}
