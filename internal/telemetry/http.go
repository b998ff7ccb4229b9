package telemetry

import (
	"encoding/json"
	"net/http"
)

// Handler returns an http.Handler exposing a registry for live
// introspection:
//
//	/metrics      Prometheus text exposition
//	/debug/vars   the same metrics as a flat JSON object
//	/debug/spans  distributed-tracing spans, reconstructed into trees
//
// /debug/spans renders text by default and structured JSON with
// ?format=json, so both humans and collectors scrape the same endpoint.
// spans may be nil, in which case the endpoint reports nothing. Callers
// mount pprof themselves when they want it (see cycloidd -pprof), so
// importing this package never registers profiling endpoints by side
// effect.
func Handler(reg *Registry, spans *SpanBuffer) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = reg.WritePrometheus(w)
	})
	mux.HandleFunc("/debug/vars", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		_ = reg.WriteJSON(w)
	})
	mux.HandleFunc("/debug/spans", func(w http.ResponseWriter, r *http.Request) {
		trees := BuildTrees(spans.Snapshot())
		if r.URL.Query().Get("format") == "json" {
			w.Header().Set("Content-Type", "application/json; charset=utf-8")
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			_ = enc.Encode(trees)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		for _, t := range trees {
			t.Format(w)
		}
	})
	return mux
}
