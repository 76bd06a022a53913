package cachesnap

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// sample returns a snapshot exercising both caches, including bytes
// that stress the encoding (binary body, float64s that must round-trip
// bit-exactly).
func sample() *Snapshot {
	return &Snapshot{
		Responses: []ResponseEntry{
			{Key: "design|{\"name\":\"a\"}", Status: 200, ContentType: "application/json", Body: []byte("{\"ok\":true}\n")},
			{Key: "validate|numeric|text|{}", Status: 200, ContentType: "text/plain; charset=utf-8", Body: []byte{0x00, 0xff, 0x7f}},
		},
		CrossSections: []CrossSectionEntry{
			{Aspect: 1, N: 32, Value: 0.03512462971844},
			{Aspect: math.Nextafter(2, 3), N: 64, Value: 1.0 / 3.0},
		},
	}
}

// TestRoundTrip: Write then Read reproduces the snapshot exactly,
// including bit-exact float64 keys/values and binary bodies.
func TestRoundTrip(t *testing.T) {
	want := sample()
	var buf bytes.Buffer
	if err := Write(&buf, want); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Responses) != len(want.Responses) || len(got.CrossSections) != len(want.CrossSections) {
		t.Fatalf("entry counts changed: %d/%d responses, %d/%d cross-sections",
			len(got.Responses), len(want.Responses), len(got.CrossSections), len(want.CrossSections))
	}
	for i := range want.Responses {
		w, g := want.Responses[i], got.Responses[i]
		if g.Key != w.Key || g.Status != w.Status || g.ContentType != w.ContentType || !bytes.Equal(g.Body, w.Body) {
			t.Fatalf("response %d changed: %+v vs %+v", i, g, w)
		}
	}
	for i := range want.CrossSections {
		w, g := want.CrossSections[i], got.CrossSections[i]
		if math.Float64bits(g.Aspect) != math.Float64bits(w.Aspect) ||
			math.Float64bits(g.Value) != math.Float64bits(w.Value) ||
			g.N != w.N {
			t.Fatalf("cross-section %d changed: %+v vs %+v", i, g, w)
		}
	}
}

// TestWriteDeterministic: identical snapshots serialize to identical
// bytes (the format embeds no timestamps or randomness), so replicas
// can compare snapshots byte for byte.
func TestWriteDeterministic(t *testing.T) {
	var a, b bytes.Buffer
	if err := Write(&a, sample()); err != nil {
		t.Fatal(err)
	}
	if err := Write(&b, sample()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("identical snapshots serialized to different bytes")
	}
}

// TestEmptySnapshot: a snapshot of empty caches round-trips.
func TestEmptySnapshot(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, &Snapshot{}); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Responses) != 0 || len(got.CrossSections) != 0 {
		t.Fatalf("empty snapshot read back entries: %+v", got)
	}
}

// TestRejections: each corruption mode is rejected with its own
// sentinel error — the distinction the boot-time diagnostics and the
// /v1/cache status codes rely on.
func TestRejections(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, sample()); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	cases := []struct {
		name    string
		mutate  func([]byte) []byte
		wantErr error
	}{
		{"empty input", func(b []byte) []byte { return nil }, ErrMagic},
		{"not a snapshot", func(b []byte) []byte { return []byte("{\"responses\":[]}") }, ErrMagic},
		{"magic flipped", func(b []byte) []byte { b[0] ^= 0xff; return b }, ErrMagic},
		{"future version", func(b []byte) []byte {
			binary.BigEndian.PutUint32(b[8:12], FormatVersion+1)
			return b
		}, ErrVersion},
		{"version zero", func(b []byte) []byte {
			binary.BigEndian.PutUint32(b[8:12], 0)
			return b
		}, ErrVersion},
		{"schema hash flipped", func(b []byte) []byte { b[12] ^= 0x01; return b }, ErrSchema},
		{"schema with a Poisson-scheme key segment", func(b []byte) []byte {
			old := sha256.Sum256([]byte("ooc-cache-snapshot/1;" +
				"respkey{design|spec,validate|model|scheme|rendering|spec};" +
				"response{key,status,content_type,body};" +
				"xsection{aspect,n,scheme->value};" +
				"schemes{sor,mg}"))
			copy(b[12:20], old[:8])
			return b
		}, ErrSchema},
		{"payload bit rot", func(b []byte) []byte { b[30] ^= 0x01; return b }, ErrCorrupt},
		{"payload truncated", func(b []byte) []byte { return b[:len(b)-8] }, ErrCorrupt},
		{"checksum truncated", func(b []byte) []byte { return b[:len(b)-1] }, ErrCorrupt},
		{"checksum flipped", func(b []byte) []byte { b[len(b)-1] ^= 0x01; return b }, ErrCorrupt},
		{"oversized declared payload", func(b []byte) []byte {
			binary.BigEndian.PutUint64(b[20:28], maxPayloadBytes+1)
			return b
		}, ErrCorrupt},
	}
	for _, tc := range cases {
		in := tc.mutate(append([]byte(nil), good...))
		if _, err := Read(bytes.NewReader(in)); !errors.Is(err, tc.wantErr) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.wantErr)
		}
	}

	// The untouched original still reads, proving the mutations (not
	// the harness) caused the rejections.
	if _, err := Read(bytes.NewReader(good)); err != nil {
		t.Fatalf("pristine snapshot rejected: %v", err)
	}
}

// TestCorruptJSONPayloadWithValidCRC: a payload that checksums
// correctly but does not decode is still ErrCorrupt — the CRC guards
// transport, the decoder guards structure.
func TestCorruptJSONPayloadWithValidCRC(t *testing.T) {
	payload := []byte("not json at all")
	var buf bytes.Buffer
	h := schemaHash()
	buf.WriteString(magic)
	hdr := binary.BigEndian.AppendUint32(nil, FormatVersion)
	hdr = append(hdr, h[:]...)
	hdr = binary.BigEndian.AppendUint64(hdr, uint64(len(payload)))
	buf.Write(hdr)
	buf.Write(payload)
	var crc [4]byte
	binary.BigEndian.PutUint32(crc[:], crc32.ChecksumIEEE(payload))
	buf.Write(crc[:])
	if _, err := Read(&buf); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("undecodable payload: err = %v, want ErrCorrupt", err)
	}
}

// TestFileRoundTripAndAtomicity: WriteFile persists via temp+rename
// (no .tmp debris), ReadFile loads it back, and a rewrite replaces the
// content in place.
func TestFileRoundTripAndAtomicity(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "cache.snap")
	if err := WriteFile(path, sample()); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Responses) != 2 || len(got.CrossSections) != 2 {
		t.Fatalf("unexpected snapshot: %+v", got)
	}
	if err := WriteFile(path, &Snapshot{}); err != nil {
		t.Fatal(err)
	}
	got, err = ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Responses) != 0 {
		t.Fatal("rewrite did not replace the snapshot")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("temp files left behind: %v", entries)
	}
}

// TestReadFileMissing: a missing file surfaces as an fs error (the
// daemon treats it as "start cold", distinct from a rejection).
func TestReadFileMissing(t *testing.T) {
	_, err := ReadFile(filepath.Join(t.TempDir(), "nope.snap"))
	if !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("missing file: err = %v, want ErrNotExist", err)
	}
}

// FuzzRead: no input may crash the decoder, and any input that decodes
// must re-encode and decode again to the same entry counts (the only
// cheap invariant that holds for arbitrary accepted inputs).
func FuzzRead(f *testing.F) {
	var buf bytes.Buffer
	if err := Write(&buf, sample()); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte(magic))
	f.Add([]byte{})
	f.Add([]byte("OOCSNAP\n\x00\x00\x00\x01"))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := Write(&out, s); err != nil {
			t.Fatalf("accepted snapshot failed to re-encode: %v", err)
		}
		s2, err := Read(&out)
		if err != nil {
			t.Fatalf("re-encoded snapshot rejected: %v", err)
		}
		if len(s2.Responses) != len(s.Responses) || len(s2.CrossSections) != len(s.CrossSections) {
			t.Fatalf("re-encode changed entry counts: %d/%d, %d/%d",
				len(s2.Responses), len(s.Responses), len(s2.CrossSections), len(s.CrossSections))
		}
	})
}
