// Package cachesnap defines the versioned on-disk (and on-wire)
// snapshot format that makes the two solve caches — the serving
// layer's response cache and internal/sim's cross-section solve cache
// — first-class, shareable infrastructure. A snapshot written by one
// oocd process can be loaded by a restarted replica (-cache-snapshot)
// or shipped to a booting peer (GET/PUT /v1/cache), so a fleet never
// re-pays a cold solve a sibling already performed.
//
// The envelope is deliberately paranoid: a stale or foreign snapshot
// must be *rejected*, never silently misused, because a cache entry
// served under the wrong key schema is a wrong answer, not a slow one.
//
//	offset  size  field
//	     0     8  magic "OOCSNAP\n"
//	     8     4  format version, big-endian uint32
//	    12     8  cache-key schema hash (first 8 bytes of the SHA-256
//	              of schemaDescriptor)
//	    20     8  payload length, big-endian uint64
//	    28     N  JSON payload (Snapshot)
//	  28+N     4  CRC-32 (IEEE) of the payload, big-endian
//
// Each guard catches a distinct failure mode: the magic rejects files
// that were never snapshots, the version rejects envelopes from a
// future (or obsolete) format, the schema hash rejects snapshots whose
// cache keys mean something different (a renamed or dropped key
// field), and the CRC rejects torn or bit-rotted payloads. Read maps
// each onto its own sentinel error so callers can report precisely why
// a snapshot was refused.
//
// Only completed, cacheable entries may appear in a snapshot:
// in-flight slots, errors, and degraded reports are never serialized
// (the exporters in internal/server and internal/sim enforce this; the
// importers re-validate entry by entry anyway, because a snapshot may
// arrive from the network).
package cachesnap

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
)

// magic identifies a cache snapshot. The trailing newline makes a
// truncated hexdump immediately recognizable and guarantees the file
// is never valid JSON, text, or a design document.
const magic = "OOCSNAP\n"

// FormatVersion is the envelope version this package writes and the
// only one it reads. Bump it when the envelope layout changes.
const FormatVersion = 1

// schemaDescriptor pins the *meaning* of the serialized cache keys.
// Bump (edit) it whenever any of the following changes, so old
// snapshots are rejected instead of aliasing under new semantics:
//
//   - the response-cache key grammar assembled by internal/server
//     ("design|<canonical-spec>" and
//     "validate|<model>|<rendering>|<canonical-spec>");
//   - the specio.Canonical byte format (it is the spec identity);
//   - the cross-section key fields (aspect, n);
//   - the semantics of a stored value (e.g. the normalized-integral
//     scaling).
const schemaDescriptor = "ooc-cache-snapshot/1;" +
	"respkey{design|spec,validate|model|rendering|spec};" +
	"response{key,status,content_type,body};" +
	"xsection{aspect,n->value}"

// ContentType is the MIME type of a snapshot on the wire
// (GET/PUT /v1/cache).
const ContentType = "application/x-ooc-cache-snapshot"

// maxPayloadBytes bounds the declared payload length so a corrupt or
// hostile header cannot make Read allocate unboundedly.
const maxPayloadBytes = 1 << 30

// Sentinel errors for the distinct rejection modes. All are wrapped
// with context by Read; match with errors.Is.
var (
	// ErrMagic: the input is not a cache snapshot at all.
	ErrMagic = errors.New("cachesnap: not a cache snapshot (bad magic)")
	// ErrVersion: a snapshot from an incompatible format version.
	ErrVersion = errors.New("cachesnap: incompatible snapshot format version")
	// ErrSchema: the snapshot's cache-key schema differs from this
	// build's — entries would alias under different key semantics.
	ErrSchema = errors.New("cachesnap: cache-key schema mismatch")
	// ErrCorrupt: the envelope is structurally valid but the payload is
	// truncated, fails its checksum, or does not decode.
	ErrCorrupt = errors.New("cachesnap: snapshot corrupt")
)

// ResponseEntry is one completed response-cache entry: the serving
// layer's assembled key and the rendered response it replays.
type ResponseEntry struct {
	Key         string `json:"key"`
	Status      int    `json:"status"`
	ContentType string `json:"content_type"`
	Body        []byte `json:"body"`
}

// CrossSectionEntry is one completed cross-section solve: the
// normalized-duct cache key and the memoized velocity integral.
type CrossSectionEntry struct {
	Aspect float64 `json:"aspect"`
	N      int     `json:"n"`
	Value  float64 `json:"value"`
}

// Snapshot is the payload: every completed, cacheable entry of both
// caches. Exporters emit entries in a deterministic order (response
// entries most-recently-used first, cross-section entries sorted by
// key), so identical cache states serialize to identical bytes.
type Snapshot struct {
	Responses     []ResponseEntry     `json:"responses,omitempty"`
	CrossSections []CrossSectionEntry `json:"cross_sections,omitempty"`
}

// schemaHash returns the 8-byte schema fingerprint embedded in every
// envelope.
func schemaHash() [8]byte {
	sum := sha256.Sum256([]byte(schemaDescriptor))
	var h [8]byte
	copy(h[:], sum[:8])
	return h
}

// SchemaHashHex renders the schema fingerprint for error messages and
// documentation.
func SchemaHashHex() string {
	h := schemaHash()
	return fmt.Sprintf("%x", h[:])
}

// Write serializes s to w in the versioned envelope.
func Write(w io.Writer, s *Snapshot) error {
	payload, err := json.Marshal(s)
	if err != nil {
		return fmt.Errorf("cachesnap: encode payload: %w", err)
	}
	h := schemaHash()
	header := make([]byte, 0, 28)
	header = append(header, magic...)
	header = binary.BigEndian.AppendUint32(header, FormatVersion)
	header = append(header, h[:]...)
	header = binary.BigEndian.AppendUint64(header, uint64(len(payload)))
	if _, err := w.Write(header); err != nil {
		return fmt.Errorf("cachesnap: write header: %w", err)
	}
	if _, err := w.Write(payload); err != nil {
		return fmt.Errorf("cachesnap: write payload: %w", err)
	}
	var crc [4]byte
	binary.BigEndian.PutUint32(crc[:], crc32.ChecksumIEEE(payload))
	if _, err := w.Write(crc[:]); err != nil {
		return fmt.Errorf("cachesnap: write checksum: %w", err)
	}
	return nil
}

// Read parses a snapshot from r, rejecting anything that is not a
// byte-exact, schema-compatible snapshot: bad magic → ErrMagic, other
// format version → ErrVersion, other key schema → ErrSchema, and a
// truncated/corrupt/undecodable payload → ErrCorrupt.
func Read(r io.Reader) (*Snapshot, error) {
	header := make([]byte, 28)
	if _, err := io.ReadFull(r, header); err != nil {
		return nil, fmt.Errorf("%w: header truncated: %v", ErrMagic, err)
	}
	if string(header[:8]) != magic {
		return nil, fmt.Errorf("%w: got %q", ErrMagic, header[:8])
	}
	if v := binary.BigEndian.Uint32(header[8:12]); v != FormatVersion {
		return nil, fmt.Errorf("%w: snapshot is v%d, this build reads v%d", ErrVersion, v, FormatVersion)
	}
	want := schemaHash()
	if !bytes.Equal(header[12:20], want[:]) {
		return nil, fmt.Errorf("%w: snapshot schema %x, this build expects %x",
			ErrSchema, header[12:20], want[:])
	}
	n := binary.BigEndian.Uint64(header[20:28])
	if n > maxPayloadBytes {
		return nil, fmt.Errorf("%w: declared payload %d bytes exceeds the %d-byte limit",
			ErrCorrupt, n, maxPayloadBytes)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, fmt.Errorf("%w: payload truncated: %v", ErrCorrupt, err)
	}
	var crc [4]byte
	if _, err := io.ReadFull(r, crc[:]); err != nil {
		return nil, fmt.Errorf("%w: checksum truncated: %v", ErrCorrupt, err)
	}
	if got, want := crc32.ChecksumIEEE(payload), binary.BigEndian.Uint32(crc[:]); got != want {
		return nil, fmt.Errorf("%w: checksum mismatch (payload %08x, recorded %08x)", ErrCorrupt, got, want)
	}
	var s Snapshot
	if err := json.Unmarshal(payload, &s); err != nil {
		return nil, fmt.Errorf("%w: payload does not decode: %v", ErrCorrupt, err)
	}
	return &s, nil
}

// WriteFile atomically persists s to path: the snapshot is written to
// a temporary file in the same directory and renamed into place, so a
// crash mid-write leaves the previous snapshot intact and a reader
// never observes a torn file.
func WriteFile(path string, s *Snapshot) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("cachesnap: create temp snapshot: %w", err)
	}
	tmp := f.Name()
	if err := Write(f, s); err != nil {
		_ = f.Close()
		_ = os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		_ = os.Remove(tmp)
		return fmt.Errorf("cachesnap: close temp snapshot: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		_ = os.Remove(tmp)
		return fmt.Errorf("cachesnap: install snapshot: %w", err)
	}
	return nil
}

// ReadFile loads a snapshot from path.
func ReadFile(path string) (*Snapshot, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	s, err := Read(f)
	if cerr := f.Close(); err == nil && cerr != nil {
		return nil, fmt.Errorf("cachesnap: close snapshot: %w", cerr)
	}
	return s, err
}
