package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"ooc/internal/cachesnap"
)

// maxSnapshotBytes bounds an imported snapshot body. Snapshots hold
// rendered JSON responses, so they dwarf spec documents, but a peer
// fill must still not let a hostile sender balloon memory.
const maxSnapshotBytes = 64 << 20

// RestoreStats reports what a snapshot restore actually installed —
// entries already live locally or failing validation are skipped, so
// the count can be smaller than the snapshot's.
type RestoreStats struct {
	Responses int `json:"imported_responses"`
}

// Snapshot captures the completed response-cache entries as a
// snapshot value. In-flight singleflight slots and error results are
// never included: the former hold no value yet and the latter are
// never cached in the first place — only 200s are.
func (s *Server) Snapshot() *cachesnap.Snapshot {
	return &cachesnap.Snapshot{Responses: exportResponses(s.cache)}
}

// WriteSnapshot serializes the current cache state to w in the
// versioned snapshot format and bumps server.cache.snapshot.exports.
func (s *Server) WriteSnapshot(w io.Writer) error {
	if err := cachesnap.Write(w, s.Snapshot()); err != nil {
		return err
	}
	s.col.Add("server.cache.snapshot.exports", 1)
	return nil
}

// RestoreSnapshot installs a snapshot into the response cache,
// skipping entries whose keys are already live (local traffic wins) or
// that fail re-validation, and records the import in the collector.
func (s *Server) RestoreSnapshot(snap *cachesnap.Snapshot) RestoreStats {
	st := RestoreStats{Responses: importResponses(s.cache, snap.Responses)}
	s.col.Add("server.cache.snapshot.imports", 1)
	s.col.Add("server.cache.import.responses", int64(st.Responses))
	return st
}

// ReadSnapshot decodes and installs a snapshot from r. Rejections are
// cachesnap's sentinel errors (ErrMagic/ErrVersion/ErrSchema/
// ErrCorrupt) wrapped with context; the cache is untouched when the
// snapshot is rejected.
func (s *Server) ReadSnapshot(r io.Reader) (RestoreStats, error) {
	snap, err := cachesnap.Read(r)
	if err != nil {
		return RestoreStats{}, err
	}
	return s.RestoreSnapshot(snap), nil
}

// handleCache serves the peer-fill protocol:
//
//	GET /v1/cache   export the live cache state as a snapshot body
//	PUT /v1/cache   import a snapshot body into the live cache
//
// A fresh replica warms itself from a running peer with a plain
// GET | PUT pipe; stale or corrupt bodies are refused the same way a
// boot-time snapshot file is: version/schema mismatches are 409
// (a real snapshot from an incompatible build), everything else
// malformed is 400.
func (s *Server) handleCache(w http.ResponseWriter, r *http.Request) {
	started := time.Now()
	switch r.Method {
	case http.MethodGet:
		w.Header().Set("Content-Type", cachesnap.ContentType)
		w.WriteHeader(http.StatusOK)
		if err := s.WriteSnapshot(w); err != nil {
			// The status is committed; the client sees a truncated body
			// and its own Read will reject the checksum.
			s.col.Add("server.write_errors", 1)
		}
		s.col.Add(fmt.Sprintf("requests.%s.%d", "cache", http.StatusOK), 1)
		s.col.Observe("request.cache", time.Since(started))
	case http.MethodPut:
		st, err := s.ReadSnapshot(http.MaxBytesReader(w, r.Body, maxSnapshotBytes))
		if err != nil {
			status := http.StatusBadRequest
			if errors.Is(err, cachesnap.ErrVersion) || errors.Is(err, cachesnap.ErrSchema) {
				status = http.StatusConflict
			}
			s.reply(w, "cache", started, jsonError(status, "snapshot rejected: %v", err), false)
			return
		}
		body, err := json.Marshal(st)
		if err != nil {
			s.reply(w, "cache", started, errorResponse(err), false)
			return
		}
		s.reply(w, "cache", started, response{
			status:      http.StatusOK,
			contentType: "application/json",
			body:        append(body, '\n'),
		}, false)
	default:
		s.reply(w, "cache", started, jsonError(http.StatusMethodNotAllowed,
			"GET exports the cache snapshot, PUT imports one"), false)
	}
}
