// Package server implements the HTTP application-server interface of paper
// §2.4: a JSON API exposing commit, version/record/range/history retrieval,
// and branch management over one RStore instance. Multiple servers can front
// the same backing cluster in read-only mode (the paper notes multi-writer
// coordination is not supported).
//
// Query endpoints that return record sets (/version, /range, /history)
// stream NDJSON: one {"record": ...} line per record as chunks arrive from
// the storage nodes, a final {"stats": ...} trailer line once the stream is
// complete, and — should the query fail after records were already sent — a
// terminating {"error": ...} line. The handlers drive the store's cursor
// API under the request's context, so a client that disconnects (or times
// out) stops the node-side chunk fetches instead of making the store finish
// a scan nobody is waiting for. Server memory per query is bounded by the
// store's fetch batch, not the version size.
//
// Mutating endpoints (/commit, /flush, /branch) deliberately detach from
// the request's cancellation (context.WithoutCancel): a client that gives
// up mid-commit must not abort a durable write half-way.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"iter"
	"log"
	"net/http"
	"strconv"
	"time"

	"rstore/internal/core"
	"rstore/internal/engine"
	"rstore/internal/types"
)

// Server is the HTTP handler set.
type Server struct {
	store *core.Store
	mux   *http.ServeMux
	// logf reports server-side conditions that cannot reach the client
	// (encode failures after headers are sent, skipped branch tips).
	// Defaults to log.Printf; replace via SetLogf (tests, custom sinks).
	logf func(format string, args ...any)
}

// New builds a server over a store.
func New(store *core.Store) *Server {
	s := &Server{store: store, mux: http.NewServeMux(), logf: log.Printf}
	s.mux.HandleFunc("POST /commit", s.handleCommit)
	s.mux.HandleFunc("GET /version/{id}", s.handleVersion)
	s.mux.HandleFunc("GET /version/{id}/record/{key}", s.handleRecord)
	s.mux.HandleFunc("GET /version/{id}/range", s.handleRange)
	s.mux.HandleFunc("GET /history/{key}", s.handleHistory)
	s.mux.HandleFunc("GET /diff", s.handleDiff)
	s.mux.HandleFunc("GET /branches", s.handleBranches)
	s.mux.HandleFunc("PUT /branch/{name}", s.handleSetBranch)
	s.mux.HandleFunc("POST /flush", s.handleFlush)
	s.mux.HandleFunc("GET /stats", s.handleStats)
	return s
}

// SetLogf redirects the server's diagnostic log line sink (nil restores
// log.Printf).
func (s *Server) SetLogf(logf func(format string, args ...any)) {
	if logf == nil {
		logf = log.Printf
	}
	s.logf = logf
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// wire types

// RecordJSON is a record on the wire; values are base64 (documents may be
// binary).
type RecordJSON struct {
	Key           string `json:"key"`
	OriginVersion uint32 `json:"origin_version"`
	Value         []byte `json:"value"`
}

func toJSON(r types.Record) RecordJSON {
	return RecordJSON{Key: string(r.CK.Key), OriginVersion: uint32(r.CK.Version), Value: r.Value}
}

// CommitRequest is the commit payload. Parent -1 creates the root.
type CommitRequest struct {
	Parent  int64             `json:"parent"`
	Parents []int64           `json:"parents,omitempty"` // merge commits
	Puts    map[string][]byte `json:"puts,omitempty"`
	Deletes []string          `json:"deletes,omitempty"`
	Branch  string            `json:"branch,omitempty"` // advance this branch on success
}

// CommitResponse returns the generated version id.
type CommitResponse struct {
	Version uint32 `json:"version"`
}

// QueryResponse wraps records plus retrieval statistics (point queries;
// the set-returning endpoints stream StreamLines instead).
type QueryResponse struct {
	Records []RecordJSON `json:"records"`
	Stats   StatsJSON    `json:"stats"`
}

// StreamLine is one NDJSON line of a streaming query response. Exactly one
// field is set: a record, the closing stats trailer, or a terminating
// error.
type StreamLine struct {
	Record *RecordJSON `json:"record,omitempty"`
	Stats  *StatsJSON  `json:"stats,omitempty"`
	Error  string      `json:"error,omitempty"`
}

// StatsJSON mirrors core.QueryStats.
type StatsJSON struct {
	Span         int     `json:"span"`
	Requests     int     `json:"requests"`
	BytesRead    int64   `json:"bytes_read"`
	SimElapsedMS float64 `json:"sim_elapsed_ms"`
	Records      int     `json:"records"`
	WastedChunks int     `json:"wasted_chunks"`
}

func statsJSON(st core.QueryStats) StatsJSON {
	return StatsJSON{
		Span: st.Span, Requests: st.Requests, BytesRead: st.BytesRead,
		SimElapsedMS: float64(st.SimElapsed.Microseconds()) / 1000,
		Records:      st.Records, WastedChunks: st.WastedChunks,
	}
}

// BranchesResponse lists branch tips (-1 = unset). Branches whose tip
// lookup failed are reported under Errors instead of being silently
// dropped.
type BranchesResponse struct {
	Branches map[string]int64  `json:"branches"`
	Errors   map[string]string `json:"errors,omitempty"`
}

func (s *Server) handleCommit(w http.ResponseWriter, r *http.Request) {
	var req CommitRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("bad commit body: %w", err))
		return
	}
	ch := core.Change{Puts: map[types.Key][]byte{}}
	for k, v := range req.Puts {
		ch.Puts[types.Key(k)] = v
	}
	for _, k := range req.Deletes {
		ch.Deletes = append(ch.Deletes, types.Key(k))
	}
	parents := make([]types.VersionID, 0, 1+len(req.Parents))
	for _, p := range append([]int64{req.Parent}, req.Parents...) {
		v, err := versionFromWire(p)
		if err != nil {
			httpError(w, http.StatusBadRequest, err)
			return
		}
		parents = append(parents, v)
	}
	// Detached from the request's cancellation: once a commit starts its
	// durable write, a dropped client must not abort it half-way.
	ctx := context.WithoutCancel(r.Context())
	v, err := s.store.CommitMerge(ctx, parents, ch)
	if err != nil {
		httpError(w, statusOf(err), err)
		return
	}
	if req.Branch != "" {
		if err := s.store.SetBranch(ctx, req.Branch, v); err != nil {
			httpError(w, statusOf(err), err)
			return
		}
	}
	s.writeJSON(w, CommitResponse{Version: uint32(v)})
}

// versionFromWire reads a version id off the wire: a negative one is no
// version (a root commit's parent), and one past the id space is refused
// rather than truncated onto a real version.
func versionFromWire(v int64) (types.VersionID, error) {
	switch {
	case v < 0:
		return types.InvalidVersion, nil
	case v >= int64(types.InvalidVersion):
		return 0, fmt.Errorf("version %d is out of range", v)
	}
	return types.VersionID(v), nil
}

// parseVersion resolves a path element that is either a numeric version id
// or a branch name.
func (s *Server) parseVersion(el string) (types.VersionID, error) {
	if n, err := strconv.ParseUint(el, 10, 32); err == nil {
		return types.VersionID(n), nil
	}
	return s.store.Tip(el)
}

func (s *Server) handleVersion(w http.ResponseWriter, r *http.Request) {
	v, err := s.parseVersion(r.PathValue("id"))
	if err != nil {
		httpError(w, http.StatusNotFound, err)
		return
	}
	s.streamRecords(w, r, s.store.GetVersion(r.Context(), v))
}

func (s *Server) handleRecord(w http.ResponseWriter, r *http.Request) {
	v, err := s.parseVersion(r.PathValue("id"))
	if err != nil {
		httpError(w, http.StatusNotFound, err)
		return
	}
	rec, st, err := s.store.GetRecord(r.Context(), types.Key(r.PathValue("key")), v)
	if err != nil {
		httpError(w, statusOf(err), err)
		return
	}
	s.writeJSON(w, QueryResponse{Stats: statsJSON(st), Records: []RecordJSON{toJSON(rec)}})
}

func (s *Server) handleRange(w http.ResponseWriter, r *http.Request) {
	v, err := s.parseVersion(r.PathValue("id"))
	if err != nil {
		httpError(w, http.StatusNotFound, err)
		return
	}
	q := r.URL.Query()
	// An ABSENT hi means "to the top of the keyspace" — an explicit
	// unbounded range, not a sentinel key that large keys could sort
	// past. A present-but-empty hi stays a bound, matching the library:
	// [lo, "") selects nothing.
	kr := core.KeyRangeFrom(types.Key(q.Get("lo")))
	if q.Has("hi") {
		kr = core.KeyRange(kr.Lo, types.Key(q.Get("hi")))
	}
	s.streamRecords(w, r, s.store.GetRange(r.Context(), kr, v))
}

func (s *Server) handleHistory(w http.ResponseWriter, r *http.Request) {
	s.streamRecords(w, r, s.store.GetHistory(r.Context(), types.Key(r.PathValue("key"))))
}

// streamWriteTimeout bounds how long one flush of NDJSON lines may stall on
// a slow reader: it limits how long a client that stops reading keeps its
// connection, and the cursor its query. Commits do not wait on it — a cursor
// streams with no store lock held. Refreshed per flush: a progressing stream
// may legitimately run long, a stalled one may not.
const streamWriteTimeout = 60 * time.Second

// streamFlushBytes is how many encoded bytes streamRecords collects before
// it writes them to the connection. A write and a flush per record sent every
// line as a TCP segment of its own, and one streamed version read in seven
// then parked its tail in loopback TCP for ≈ 200 ms (benchmark/,
// client.stall_pct on version-scan).
const streamFlushBytes = 32 << 10

// streamRecords drives a query cursor onto the wire as NDJSON. An error
// before the first record still maps to a plain HTTP error status; once
// records are flowing the status line is long gone, so a failure becomes a
// terminating error line. The first record is flushed at once — the first
// results must reach the client while later chunks are still being fetched —
// later ones whenever streamFlushBytes have collected, the rest when the
// cursor ends.
func (s *Server) streamRecords(w http.ResponseWriter, r *http.Request, cur *core.Cursor) {
	next, stop := iter.Pull2(cur.Records())
	defer stop()

	rec, err, ok := next()
	if ok && err != nil {
		httpError(w, statusOf(err), err)
		return
	}

	w.Header().Set("Content-Type", "application/x-ndjson")
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	rc := http.NewResponseController(w)
	// The per-flush deadline below lands on the CONNECTION, which outlives
	// this response: without a WriteTimeout configured, net/http never
	// resets it between keep-alive requests, so a stale deadline would
	// poison the next request on the same connection. Clear it on every
	// exit path.
	defer rc.SetWriteDeadline(time.Time{})
	flush := func() bool {
		if err := rc.SetWriteDeadline(time.Now().Add(streamWriteTimeout)); err != nil && !errors.Is(err, http.ErrNotSupported) {
			s.logf("rstore server: streaming write deadline: %v", err)
		}
		_, err := w.Write(buf.Bytes())
		buf.Reset()
		if err == nil {
			err = rc.Flush()
		}
		if err != nil && !errors.Is(err, http.ErrNotSupported) {
			// The client is gone, stalled past the write deadline, or the
			// connection broke; the cursor's context normally cancels
			// alongside, this just stops sooner.
			s.logf("rstore server: streaming response: %v", err)
			return false
		}
		return true
	}
	emit := func(line StreamLine) {
		if err := enc.Encode(line); err != nil { // into memory: a line that cannot be marshalled
			s.logf("rstore server: streaming response: %v", err)
		}
	}
	for first := true; ok; first = false {
		if err != nil {
			emit(StreamLine{Error: err.Error()})
			flush()
			return
		}
		rj := toJSON(rec)
		emit(StreamLine{Record: &rj})
		if (first || buf.Len() >= streamFlushBytes) && !flush() {
			return
		}
		rec, err, ok = next()
	}
	st := statsJSON(cur.Stats())
	emit(StreamLine{Stats: &st})
	flush()
}

// DiffJSON is the wire form of a version diff.
type DiffJSON struct {
	Added    []CompositeKeyJSON `json:"added"`
	Removed  []CompositeKeyJSON `json:"removed"`
	Modified []string           `json:"modified"`
}

// CompositeKeyJSON is a ⟨key, origin⟩ pair on the wire.
type CompositeKeyJSON struct {
	Key           string `json:"key"`
	OriginVersion uint32 `json:"origin_version"`
}

func (s *Server) handleDiff(w http.ResponseWriter, r *http.Request) {
	a, err := s.parseVersion(r.URL.Query().Get("a"))
	if err != nil {
		httpError(w, http.StatusNotFound, err)
		return
	}
	b, err := s.parseVersion(r.URL.Query().Get("b"))
	if err != nil {
		httpError(w, http.StatusNotFound, err)
		return
	}
	d, err := s.store.Diff(a, b)
	if err != nil {
		httpError(w, statusOf(err), err)
		return
	}
	out := DiffJSON{Modified: make([]string, 0, len(d.Modified))}
	for _, ck := range d.Added {
		out.Added = append(out.Added, CompositeKeyJSON{Key: string(ck.Key), OriginVersion: uint32(ck.Version)})
	}
	for _, ck := range d.Removed {
		out.Removed = append(out.Removed, CompositeKeyJSON{Key: string(ck.Key), OriginVersion: uint32(ck.Version)})
	}
	for _, k := range d.Modified {
		out.Modified = append(out.Modified, string(k))
	}
	s.writeJSON(w, out)
}

func (s *Server) handleBranches(w http.ResponseWriter, r *http.Request) {
	out := BranchesResponse{Branches: map[string]int64{}}
	for _, b := range s.store.Branches() {
		tip, err := s.store.Tip(b)
		if err != nil {
			// Surface instead of silently skipping: the caller sees which
			// branch failed, and the log records it server-side.
			if out.Errors == nil {
				out.Errors = map[string]string{}
			}
			out.Errors[b] = err.Error()
			s.logf("rstore server: branch %q tip: %v", b, err)
			continue
		}
		if tip == types.InvalidVersion {
			out.Branches[b] = -1
		} else {
			out.Branches[b] = int64(tip)
		}
	}
	s.writeJSON(w, out)
}

func (s *Server) handleSetBranch(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Version int64 `json:"version"`
	}
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	v, err := versionFromWire(req.Version)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	if err := s.store.SetBranch(context.WithoutCancel(r.Context()), r.PathValue("name"), v); err != nil {
		httpError(w, statusOf(err), err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleFlush(w http.ResponseWriter, r *http.Request) {
	if err := s.store.Flush(context.WithoutCancel(r.Context())); err != nil {
		httpError(w, statusOf(err), err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	kv := s.store.KV().Stats(r.Context())
	s.writeJSON(w, map[string]any{
		"versions":     s.store.NumVersions(),
		"chunks":       s.store.NumChunks(),
		"pending":      s.store.PendingVersions(),
		"total_span":   s.store.TotalVersionSpan(),
		"bytes_stored": kv.BytesStored,
		"requests":     kv.Requests,
		// Replication repair traffic (zero at replication factor 1).
		"repair_writes":   kv.RepairWrites,
		"hints_pending":   kv.HintsPending,
		"hints_replayed":  kv.HintsReplayed,
		"tombstones_gced": kv.TombstonesGCed,
		// Anti-entropy sync traffic (zero unless the background loop is
		// enabled via -anti-entropy-interval).
		"ae_syncs":         kv.AESyncs,
		"ae_ranges_diffed": kv.AERangesDiffed,
		"ae_keys_repaired": kv.AEKeysRepaired,
		"ae_bytes_hashed":  kv.AEBytesHashed,
		// Storage reclaim (zero on engines without compaction).
		"disk_bytes":      kv.DiskBytes,
		"live_ratio":      kv.LiveRatio,
		"compacted_bytes": kv.CompactedBytes,
		// Failure detector (zero on non-remote clusters).
		"breaker_open":       kv.BreakerOpen,
		"breaker_trips":      kv.BreakerTrips,
		"breaker_probes":     kv.BreakerProbes,
		"breaker_fast_fails": kv.BreakerFastFails,
	})
}

func (s *Server) writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		// Headers already sent; the failure cannot reach the client, so it
		// must at least reach the operator.
		s.logf("rstore server: encode response: %v", err)
	}
}

func statusOf(err error) int {
	switch {
	case errors.Is(err, types.ErrNotFound), errors.Is(err, types.ErrVersionUnknown):
		return http.StatusNotFound
	case errors.Is(err, types.ErrReadOnly):
		return http.StatusForbidden
	case errors.Is(err, types.ErrClosed), errors.Is(err, types.ErrPoisoned), errors.Is(err, engine.ErrUnavailable):
		return http.StatusServiceUnavailable
	case errors.Is(err, types.ErrCorrupt):
		return http.StatusInternalServerError
	default:
		return http.StatusBadRequest
	}
}

func httpError(w http.ResponseWriter, code int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}
