package traceio

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/emu"
	"repro/internal/workload"
)

// testTrace records a small but representative workload: loads, stores,
// branches, calls/returns, FP ops, partial-word traffic.
func testTrace(t *testing.T, name string, iters int) *emu.Trace {
	t.Helper()
	p, err := workload.Generate(name, workload.Options{Iterations: iters})
	if err != nil {
		t.Fatalf("generate %s: %v", name, err)
	}
	tr, err := emu.RecordTrace(p, 0)
	if err != nil {
		t.Fatalf("record %s: %v", name, err)
	}
	return tr
}

func encode(t *testing.T, tr *emu.Trace) ([]byte, Summary) {
	t.Helper()
	var buf bytes.Buffer
	sum, err := Encode(&buf, tr)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	return buf.Bytes(), sum
}

// traceBlock is the number of records in one block of emu's trace store.
// Tests size their traces in blocks so that decoding crosses block
// boundaries.
const traceBlock = 4096

// TestRoundTrip is the format's core property: encode → decode → re-encode
// is byte-identical, the decoder's content hash matches the encoder's, and
// the rebuilt dynamic stream is field-for-field equal to the recorded one
// everywhere the timing model looks (Value is deliberately not carried).
func TestRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name, bench string
		iters       int
		blocks      uint64 // the trace must hold more than this many blocks
	}{
		{"gzip", "gzip", 40, 1},
		{"mesa.o", "mesa.o", 40, 1},
		{"applu", "applu", 40, 1},
		{"gzip-multiblock", "gzip", 120, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			orig := testTrace(t, tc.bench, tc.iters)
			if orig.Len() <= tc.blocks*traceBlock {
				t.Fatalf("trace holds %d records; the case needs more than %d blocks", orig.Len(), tc.blocks)
			}
			data, sum := encode(t, orig)
			if sum.Insts != orig.Len() {
				t.Fatalf("summary counts %d insts, trace has %d", sum.Insts, orig.Len())
			}

			decoded, dsum, err := Decode(bytes.NewReader(data))
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			if dsum != sum {
				t.Fatalf("decode summary %+v differs from encode summary %+v", dsum, sum)
			}
			if decoded.Name() != orig.Name() || decoded.Len() != orig.Len() {
				t.Fatalf("decoded %s/%d, want %s/%d", decoded.Name(), decoded.Len(), orig.Name(), orig.Len())
			}

			// Stream equivalence: every field the pipeline consumes.
			oc, dc := orig.Cursor(0), decoded.Cursor(0)
			for seq := uint64(1); seq <= orig.Len(); seq++ {
				od, _ := oc.Get(seq)
				dd, _ := dc.Get(seq)
				if *od.Static != *dd.Static {
					t.Fatalf("seq %d: static %+v != %+v", seq, *od.Static, *dd.Static)
				}
				a, b := *od, *dd
				a.Static, b.Static = nil, nil
				a.Value, b.Value = 0, 0 // not carried by the format
				if a != b {
					t.Fatalf("seq %d: dynamic record differs:\n got %+v\nwant %+v", seq, b, a)
				}
			}

			reenc, resum := encode(t, decoded)
			if !bytes.Equal(reenc, data) {
				t.Fatalf("re-encode is not byte-identical (%d vs %d bytes)", len(reenc), len(data))
			}
			if resum.Hash != sum.Hash {
				t.Fatalf("re-encode hash %s, want %s", resum.Hash, sum.Hash)
			}
		})
	}
}

// TestDecodeAllocations guards the decoder's record storage: rebuilding a
// trace of more than ten blocks allocates about the bytes its records
// occupy, not a multiple of them from regrowing one slice.
func TestDecodeAllocations(t *testing.T) {
	const recSize = uint64(unsafe.Sizeof(emu.DynInst{}))
	orig := testTrace(t, "gzip", 300)
	if orig.Len() <= 10*traceBlock {
		t.Fatalf("trace holds %d records; the guard needs more than 10 blocks", orig.Len())
	}
	data, _ := encode(t, orig)
	var decoded *emu.Trace
	var err error
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	decoded, _, err = Decode(bytes.NewReader(data))
	runtime.ReadMemStats(&m1)
	if err != nil {
		t.Fatal(err)
	}
	got := m1.TotalAlloc - m0.TotalAlloc
	if bound := decoded.Len()*recSize + 3*traceBlock*recSize; got > bound {
		t.Errorf("decoding %d records allocated %d bytes, %.1fx their size; want at most %d",
			decoded.Len(), got, float64(got)/float64(decoded.Len()*recSize), bound)
	}
}

func TestEncodeRejectsEmptyTrace(t *testing.T) {
	b := emu.NewTraceBuilder("empty")
	if _, err := b.Trace(); err == nil {
		t.Fatalf("TraceBuilder finalized an empty trace")
	}
}

// TestDecodeErrors drives the strict validator with systematic corruptions
// of a valid file.
func TestDecodeErrors(t *testing.T) {
	data, _ := encode(t, testTrace(t, "gzip", 20))

	mutate := func(f func([]byte) []byte) []byte {
		c := append([]byte(nil), data...)
		return f(c)
	}
	cases := []struct {
		name string
		data []byte
		want string
	}{
		{"empty", nil, "truncated"},
		{"bad magic", mutate(func(b []byte) []byte { b[0] ^= 0xff; return b }), "bad magic"},
		{"bad version", mutate(func(b []byte) []byte { b[len(Magic)] = 0x7f; return b }), "unsupported format version"},
		{"truncated header", data[:10], "truncated"},
		{"truncated mid-records", data[:len(data)*2/3], "truncated"},
		{"missing checksum", data[:len(data)-10], "truncated"},
		{"checksum flip", mutate(func(b []byte) []byte { b[len(b)-1] ^= 1; return b }), "checksum mismatch"},
		{"payload flip", mutate(func(b []byte) []byte { b[len(b)/2] ^= 0x40; return b }), ""},
		{"trailing bytes", append(append([]byte(nil), data...), 0), "trailing bytes"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, _, err := Decode(bytes.NewReader(tc.data))
			if err == nil {
				t.Fatalf("decode accepted corrupt input")
			}
			if tc.want != "" && !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestEntryRoundTrip(t *testing.T) {
	dir := t.TempDir()
	tr := testTrace(t, "gzip", 20)

	var buf bytes.Buffer
	sum, err := Encode(&buf, tr)
	if err != nil {
		t.Fatal(err)
	}
	m := NewManifest(sum, "workload:gzip iters=20", "test")
	if err := os.WriteFile(filepath.Join(dir, m.TraceFilename()), buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := WriteEntry(dir, m); err != nil {
		t.Fatalf("WriteEntry: %v", err)
	}

	entries, err := LoadDir(dir)
	if err != nil {
		t.Fatalf("LoadDir: %v", err)
	}
	if len(entries) != 1 || entries[0].RefName() != m.RefName() {
		t.Fatalf("LoadDir returned %+v, want one entry named %s", entries, m.RefName())
	}
	if err := entries[0].Verify(); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if !strings.Contains(m.RefName(), m.TraceHash[:16]) {
		t.Fatalf("ref name %s does not embed the 16-digit hash prefix", m.RefName())
	}

	// Tampering with the trace must fail the hash pin at load time.
	tracePath := filepath.Join(dir, m.TraceFilename())
	raw, _ := os.ReadFile(tracePath)
	raw[len(raw)/2] ^= 1
	if err := os.WriteFile(tracePath, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadDir(dir); err == nil || !strings.Contains(err.Error(), "hashes to") {
		t.Fatalf("LoadDir accepted a tampered trace (err=%v)", err)
	}
}

func TestLoadDirEmpty(t *testing.T) {
	if _, err := LoadDir(t.TempDir()); err == nil {
		t.Fatalf("LoadDir accepted an empty directory")
	}
}
