package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"

	"flor.dev/flor/internal/obs"
)

// RegisterRequest is the body of POST /v1/runs: register a recorded run
// directory against a program from the server's library.
type RegisterRequest struct {
	ID      string `json:"id"`
	Dir     string `json:"dir"`
	Program string `json:"program"`
}

// Handler returns the daemon's HTTP/JSON API:
//
//	GET  /v1/runs                 registered runs (probes, layout, open state)
//	POST /v1/runs                 register a run dir (RegisterRequest body);
//	                              bad directories (unknown store format) 400
//	POST /v1/runs/{id}/replay     full replay query (ReplayRequest body)
//	GET  /v1/runs/{id}/logs       sample query (?iters=3,7&probe=name);
//	                              &stream=1 streams NDJSON chunks (one
//	                              {"iteration","logs"} object per sampled
//	                              iteration, chunked transfer encoding)
//	                              instead of buffering the whole replay
//	POST /v1/runs/{id}/logs       sample query (SampleRequest body)
//	GET  /v1/runs/{id}/trace/{trace_id}
//	                              a completed query's span trace as NDJSON
//	                              (trace_id from the replay or sample
//	                              response; served from the run's trace ring,
//	                              then from the durable trace store when one
//	                              is configured — 404 only once both miss)
//	GET  /v1/stats                pool, store-cache, per-run and chunk-pool
//	                              stats (incl. per-query cost attribution and
//	                              oldest in-flight query age)
//	GET  /v1/debug/tasks          background-task traces (GC phases): active
//	                              tasks first, then recent completions
//	GET  /v1/debug/slow?limit=N   slow-query log entries, newest first (404
//	                              unless a trace store is configured)
//	GET  /metrics                 Prometheus text exposition of the metrics
//	                              registry (empty comment when disabled);
//	                              latency histogram buckets carry trace-ID
//	                              exemplars
//
// While the daemon drains (Shutdown), new queries and registrations get
// 503.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	// timed wraps a handler with a per-route latency histogram; the handle
	// resolves once per route when the mux is built, not per request.
	timed := func(route string, h http.HandlerFunc) http.HandlerFunc {
		hist := obs.H(obs.MServeRequestSeconds, obs.L("route", route))
		return func(w http.ResponseWriter, r *http.Request) {
			t0 := time.Now()
			h(w, r)
			hist.ObserveNs(time.Since(t0).Nanoseconds())
		}
	}
	mux.HandleFunc("GET /v1/runs", timed("runs", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Runs())
	}))
	mux.HandleFunc("POST /v1/runs", timed("register", func(w http.ResponseWriter, r *http.Request) {
		var req RegisterRequest
		if !readJSON(w, r, &req) {
			return
		}
		if err := s.RegisterByName(req.ID, req.Dir, req.Program); err != nil {
			writeErr(w, err)
			return
		}
		writeJSON(w, http.StatusOK, s.Runs())
	}))
	mux.HandleFunc("GET /v1/stats", timed("stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Stats())
	}))
	mux.HandleFunc("GET /v1/debug/tasks", timed("tasks", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, obs.Tasks())
	}))
	mux.HandleFunc("GET /v1/debug/slow", timed("slow", func(w http.ResponseWriter, r *http.Request) {
		if s.traces == nil {
			writeJSON(w, http.StatusNotFound, errBody(fmt.Errorf("serve: no trace store configured (set Options.TraceDir / -trace-dir)")))
			return
		}
		limit := 100
		if v := r.URL.Query().Get("limit"); v != "" {
			n, err := strconv.Atoi(v)
			if err != nil || n <= 0 {
				writeJSON(w, http.StatusBadRequest, errBody(fmt.Errorf("serve: bad limit %q", v)))
				return
			}
			limit = n
		}
		writeJSON(w, http.StatusOK, s.SlowQueries(limit))
	}))
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = s.MetricsRegistry().WritePrometheus(w)
	})
	mux.HandleFunc("POST /v1/runs/{id}/replay", timed("replay", func(w http.ResponseWriter, r *http.Request) {
		var req ReplayRequest
		if !readJSON(w, r, &req) {
			return
		}
		res, err := s.Replay(r.Context(), r.PathValue("id"), req)
		if err != nil {
			writeErr(w, err)
			return
		}
		writeJSON(w, http.StatusOK, res)
	}))
	mux.HandleFunc("GET /v1/runs/{id}/trace/{trace_id}", timed("trace", func(w http.ResponseWriter, r *http.Request) {
		tr, err := s.Trace(r.PathValue("id"), r.PathValue("trace_id"))
		if err != nil {
			writeErr(w, err)
			return
		}
		w.Header().Set("Content-Type", "application/x-ndjson")
		_ = tr.WriteNDJSON(w)
	}))
	sample := func(w http.ResponseWriter, r *http.Request, req SampleRequest) {
		res, err := s.Sample(r.Context(), r.PathValue("id"), req)
		if err != nil {
			writeErr(w, err)
			return
		}
		writeJSON(w, http.StatusOK, res)
	}
	mux.HandleFunc("POST /v1/runs/{id}/logs", timed("logs", func(w http.ResponseWriter, r *http.Request) {
		var req SampleRequest
		if !readJSON(w, r, &req) {
			return
		}
		sample(w, r, req)
	}))
	mux.HandleFunc("GET /v1/runs/{id}/logs", timed("logs", func(w http.ResponseWriter, r *http.Request) {
		req := SampleRequest{Probe: r.URL.Query().Get("probe")}
		iters, err := parseIters(r.URL.Query().Get("iters"))
		if err != nil {
			writeJSON(w, http.StatusBadRequest, errBody(err))
			return
		}
		req.Iterations = iters
		if v := r.URL.Query().Get("stream"); v == "1" || v == "true" {
			s.streamSample(w, r, req)
			return
		}
		sample(w, r, req)
	}))
	return mux
}

// streamSample serves a sampling query incrementally: one NDJSON line per
// replayed iteration, flushed as produced, so the response is chunked
// rather than buffered — a replay over hundreds of iterations delivers its
// first logs after the first iteration and never holds the full output in
// memory. Every chunk write carries a rolling deadline (the queue timeout):
// a client that stops reading mid-stream would otherwise stall the replay
// between iterations while it pins an in-flight slot and blocks drain.
// Errors after the first chunk arrive as a final {"error": ...} line (the
// 200 status is already on the wire).
func (s *Server) streamSample(w http.ResponseWriter, r *http.Request, req SampleRequest) {
	rc := http.NewResponseController(w)
	enc := json.NewEncoder(w)
	started := false
	_, err := s.SampleStream(r.Context(), r.PathValue("id"), req, func(chunk SampleChunk) error {
		if !started {
			started = true
			w.Header().Set("Content-Type", "application/x-ndjson")
			w.WriteHeader(http.StatusOK)
		}
		// Best-effort: not every ResponseWriter supports deadlines
		// (httptest recorders); the write itself still errors out the
		// query when the connection is gone.
		_ = rc.SetWriteDeadline(time.Now().Add(s.opts.QueueTimeout))
		if err := enc.Encode(chunk); err != nil {
			return err
		}
		// The ResponseController follows Unwrap through middleware
		// wrappers, unlike a direct http.Flusher assertion.
		_ = rc.Flush()
		return nil
	})
	if started {
		// The per-chunk deadlines were set on the connection, which
		// keep-alive reuses for later (possibly slow, non-streamed)
		// responses; clear them so the stream's timeout does not outlive
		// the stream.
		defer rc.SetWriteDeadline(time.Time{})
	}
	if err != nil {
		if !started {
			writeErr(w, err)
			return
		}
		_ = enc.Encode(errBody(err))
	}
}

// ListenAndServe serves the API on opts.Addr until the listener fails or
// Shutdown drains the daemon (then it returns http.ErrServerClosed).
func (s *Server) ListenAndServe() error {
	hs, err := s.installHTTPServer(&http.Server{Addr: s.opts.Addr, Handler: s.Handler()})
	if err != nil {
		return err
	}
	return hs.ListenAndServe()
}

// Serve serves the API on an existing listener (tests, embedding); Shutdown
// stops it like ListenAndServe's.
func (s *Server) Serve(l net.Listener) error {
	hs, err := s.installHTTPServer(&http.Server{Handler: s.Handler()})
	if err != nil {
		return err
	}
	return hs.Serve(l)
}

// installHTTPServer publishes the http.Server for Shutdown to stop. If a
// drain already began — a signal racing startup — the listener must not
// start at all: Shutdown has already passed the point where it would have
// stopped it, and an orphaned listener would serve 503s forever.
func (s *Server) installHTTPServer(hs *http.Server) (*http.Server, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return nil, http.ErrServerClosed
	}
	s.httpSrv = hs
	return hs, nil
}

// parseIters parses "3,7,12" into iterations.
func parseIters(raw string) ([]int, error) {
	if strings.TrimSpace(raw) == "" {
		return nil, fmt.Errorf("serve: missing iters parameter (e.g. ?iters=3,7)")
	}
	var out []int
	for _, f := range strings.Split(raw, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil {
			return nil, fmt.Errorf("serve: bad iteration %q", f)
		}
		out = append(out, n)
	}
	return out, nil
}

// maxRequestBody caps a JSON request body. The largest legitimate request is
// a sampling query's iteration list, which stays orders of magnitude below it;
// without a cap one POST makes the daemon buffer whatever it is sent.
const maxRequestBody = 1 << 20

// readJSON decodes a request body of at most maxRequestBody bytes into dst,
// answering 413 for a longer one and 400 for one that does not parse.
func readJSON(w http.ResponseWriter, r *http.Request, dst any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		status := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			status = http.StatusRequestEntityTooLarge
		}
		writeJSON(w, status, errBody(fmt.Errorf("serve: bad request body: %w", err)))
		return false
	}
	return true
}

func errBody(err error) map[string]string {
	return map[string]string{"error": err.Error()}
}

// writeErr maps typed serve errors to HTTP status codes.
func writeErr(w http.ResponseWriter, err error) {
	status := http.StatusInternalServerError
	switch {
	case errors.Is(err, ErrUnknownRun), errors.Is(err, ErrUnknownTrace):
		status = http.StatusNotFound
	case errors.Is(err, ErrUnknownProbe), errors.Is(err, ErrBadRequest):
		status = http.StatusBadRequest
	case errors.Is(err, ErrBusy):
		status = http.StatusTooManyRequests
	case errors.Is(err, ErrQueueTimeout):
		status = http.StatusGatewayTimeout
	case errors.Is(err, ErrDraining):
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, errBody(err))
}

func writeJSON(w http.ResponseWriter, status int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(body)
}
