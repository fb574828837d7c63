// Package traceio defines the portable recorded-trace format of the
// real-program frontend: a versioned binary container for one program's
// dynamic instruction stream, with a streaming encoder/decoder, strict
// validation, and sha256 content identity.
//
// A trace file carries exactly what replay cannot re-derive. The header pins
// the format version, the ISA identity and word size, and the program name.
// A static-instruction table holds every distinct static instruction the
// stream executes (full isa.Inst: PC, op class, function selectors,
// source/dest registers, immediate, target, memory width and conversion
// flags), deduplicated by PC in first-execution order. Each dynamic record
// is then a static-table index plus the per-execution facts: the effective
// address for memory operations, the outcome for conditional branches, and
// the architectural target for indirect returns. Sequence numbers, store
// sequence numbers, and the per-load oracle memory dependence are *not*
// stored — the decoder replays them through emu.TraceBuilder, the same
// builder emu.RecordTrace records through, so a decoded trace equals a
// freshly recorded one field for field. Architectural values and the
// communicating store's address are in neither: no record carries them. A
// footer closes the file with the record count and a SHA-256 checksum over
// everything before it, so truncation and corruption fail loudly instead of
// replaying a wrong workload.
//
// Content identity is the hex SHA-256 of the whole file. It appears in
// committed-corpus filenames (see Manifest), in the trace experiment's
// scope string — and therefore in every sweep pair key, checkpoint key, and
// server result-cache key — exactly like scenario content hashes.
package traceio

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash"
	"io"
	"os"

	"repro/internal/emu"
	"repro/internal/isa"
)

// Format identity. A decoder accepts exactly this magic, version, ISA and
// word size; anything else is a structural error, never a guess.
const (
	// Magic opens every trace file.
	Magic = "NSQTRACE"
	// Version is the format version this package reads and writes.
	Version = 1
	// ISA identifies the instruction set the statics are encoded in.
	ISA = "simisa-v1"
	// WordBytes is the architectural word size in bytes.
	WordBytes = 8
	// FileExt is the conventional trace-file extension.
	FileExt = ".nsqt"
)

// maxStatics bounds the static-instruction table; SimISA programs are
// generated and never remotely approach it, so a larger declared count is
// corruption, not scale.
const maxStatics = 1 << 20

// maxName bounds the program-name string in the header.
const maxName = 256

// Record flag bits.
const (
	flagTaken   = 1 << 0 // conditional branch outcome
	flagEffAddr = 1 << 1 // record carries an effective address (memory ops)
	flagNextPC  = 1 << 2 // record carries an explicit next PC (returns)
)

// Static flag bits.
const (
	staticSigned = 1 << 0
	staticFPConv = 1 << 1
)

// Summary describes a decoded trace without exposing its instructions.
type Summary struct {
	// Name is the traced program's name from the header.
	Name string
	// Statics is the static-instruction table size.
	Statics int
	// Insts, Loads and Stores count dynamic records.
	Insts  uint64
	Loads  uint64
	Stores uint64
	// Hash is the hex SHA-256 of the entire file — the trace's content
	// identity.
	Hash string
}

// Encode writes the trace to w in the versioned container format and
// returns a summary whose Hash is the content identity of the bytes
// written. Encoding is deterministic: the same trace always yields the same
// bytes, so decode→re-encode round-trips byte-identically.
func Encode(w io.Writer, t *emu.Trace) (Summary, error) {
	if t.Len() == 0 {
		return Summary{}, errors.New("traceio: refusing to encode an empty trace")
	}
	if len(t.Name()) == 0 || len(t.Name()) > maxName {
		return Summary{}, fmt.Errorf("traceio: trace name length %d outside [1,%d]", len(t.Name()), maxName)
	}

	// Everything funnels through the hasher so the content identity is
	// computed in the same pass as the write.
	fileHash := sha256.New()
	payloadHash := sha256.New()
	bw := bufio.NewWriter(io.MultiWriter(w, fileHash, payloadHash))

	var scratch []byte
	emit := func(b []byte) error { _, err := bw.Write(b); return err }
	uvarint := func(v uint64) error { return emit(binary.AppendUvarint(scratch[:0], v)) }
	varint := func(v int64) error { return emit(binary.AppendVarint(scratch[:0], v)) }
	str := func(s string) error {
		if err := uvarint(uint64(len(s))); err != nil {
			return err
		}
		return emit([]byte(s))
	}

	// Header.
	if err := emit([]byte(Magic)); err != nil {
		return Summary{}, err
	}
	if err := uvarint(Version); err != nil {
		return Summary{}, err
	}
	if err := str(ISA); err != nil {
		return Summary{}, err
	}
	if err := uvarint(WordBytes); err != nil {
		return Summary{}, err
	}
	if err := str(t.Name()); err != nil {
		return Summary{}, err
	}

	// Static table: distinct statics in first-execution order, deduplicated
	// by PC. Two statics sharing a PC would make replay ambiguous.
	cur := t.Cursor(0)
	index := make(map[uint64]int)
	var statics []*isa.Inst
	for seq := uint64(1); seq <= t.Len(); seq++ {
		d, err := cur.Get(seq)
		if err != nil {
			return Summary{}, err
		}
		if prev, ok := index[d.Static.PC]; ok {
			if *statics[prev] != *d.Static {
				return Summary{}, fmt.Errorf("traceio: two distinct statics at pc %#x", d.Static.PC)
			}
			continue
		}
		index[d.Static.PC] = len(statics)
		statics = append(statics, d.Static)
	}
	if len(statics) > maxStatics {
		return Summary{}, fmt.Errorf("traceio: %d static instructions exceed the format bound %d", len(statics), maxStatics)
	}
	if err := uvarint(uint64(len(statics))); err != nil {
		return Summary{}, err
	}
	for _, in := range statics {
		if err := in.Validate(); err != nil {
			return Summary{}, fmt.Errorf("traceio: %w", err)
		}
		var flags byte
		if in.Signed {
			flags |= staticSigned
		}
		if in.FPConv {
			flags |= staticFPConv
		}
		for _, step := range []error{
			uvarint(in.PC),
			emit([]byte{byte(in.Op), byte(in.Fn), byte(in.Br), byte(in.Dst), byte(in.Src1), byte(in.Src2)}),
			varint(in.Imm),
			uvarint(in.Target),
			emit([]byte{in.MemSize, flags}),
			str(in.Label),
		} {
			if step != nil {
				return Summary{}, step
			}
		}
	}

	// Dynamic records, closed by a zero end marker (live records store
	// static index + 1).
	sum := Summary{Name: t.Name(), Statics: len(statics), Insts: t.Len()}
	for seq := uint64(1); seq <= t.Len(); seq++ {
		d, err := cur.Get(seq)
		if err != nil {
			return Summary{}, err
		}
		in := d.Static
		if err := uvarint(uint64(index[in.PC]) + 1); err != nil {
			return Summary{}, err
		}
		var flags byte
		var fields []uint64
		if in.IsMem() {
			flags |= flagEffAddr
			fields = append(fields, d.EffAddr)
		}
		if in.IsCondBranch() && d.Taken {
			flags |= flagTaken
		}
		if in.IsReturn() {
			flags |= flagNextPC
			fields = append(fields, d.NextPC)
		}
		if err := emit([]byte{flags}); err != nil {
			return Summary{}, err
		}
		for _, f := range fields {
			if err := uvarint(f); err != nil {
				return Summary{}, err
			}
		}
		switch {
		case in.IsLoad():
			sum.Loads++
		case in.IsStore():
			sum.Stores++
		}
	}
	if err := uvarint(0); err != nil {
		return Summary{}, err
	}

	// Footer: record count, then the payload checksum.
	if err := uvarint(t.Len()); err != nil {
		return Summary{}, err
	}
	if err := bw.Flush(); err != nil {
		return Summary{}, err
	}
	if _, err := w.Write(payloadHash.Sum(nil)); err != nil {
		return Summary{}, err
	}
	fileHash.Write(payloadHash.Sum(nil))
	sum.Hash = hex.EncodeToString(fileHash.Sum(nil))
	return sum, nil
}

// hashTee reads from a buffered reader and folds exactly the *consumed*
// bytes — never the buffer's read-ahead — into two hashers: the payload
// checksum verified against the footer, and the whole-file content hash.
// Consumed bytes are batched in a small buffer so varint-by-varint decoding
// does not pay one hash call per byte.
type hashTee struct {
	r             *bufio.Reader
	payload, file hash.Hash
	// payloadDone flips once the payload checksum is snapshotted; bytes
	// consumed afterwards (the stored checksum itself) count only toward
	// the file hash.
	payloadDone bool
	buf         []byte
}

func newHashTee(r io.Reader) *hashTee {
	return &hashTee{
		r: bufio.NewReader(r), payload: sha256.New(), file: sha256.New(),
		buf: make([]byte, 0, 4096),
	}
}

func (t *hashTee) drain() {
	if len(t.buf) == 0 {
		return
	}
	t.file.Write(t.buf)
	if !t.payloadDone {
		t.payload.Write(t.buf)
	}
	t.buf = t.buf[:0]
}

// ReadByte implements io.ByteReader for binary.ReadUvarint/ReadVarint.
func (t *hashTee) ReadByte() (byte, error) {
	b, err := t.r.ReadByte()
	if err != nil {
		return 0, err
	}
	if len(t.buf) == cap(t.buf) {
		t.drain()
	}
	t.buf = append(t.buf, b)
	return b, nil
}

// Read implements io.Reader (used via io.ReadFull for bulk fields).
func (t *hashTee) Read(p []byte) (int, error) {
	n, err := t.r.Read(p)
	if n > 0 {
		t.drain()
		t.file.Write(p[:n])
		if !t.payloadDone {
			t.payload.Write(p[:n])
		}
	}
	return n, err
}

// payloadSum snapshots the payload checksum and stops feeding the payload
// hasher; only the file hash accumulates from here on.
func (t *hashTee) payloadSum() []byte {
	t.drain()
	t.payloadDone = true
	return t.payload.Sum(nil)
}

// fileSum returns the content identity of every byte consumed so far.
func (t *hashTee) fileSum() []byte {
	t.drain()
	return t.file.Sum(nil)
}

// Decode reads one trace from r, strictly validating structure, control
// flow, and the checksum, and rebuilds the full dynamic stream (sequence
// numbers, SSNs, oracle dependences) through emu.TraceBuilder. It returns
// the trace and a summary whose Hash is the content identity of the bytes
// consumed. Any deviation — wrong magic, unsupported version, foreign ISA,
// malformed statics, broken control flow, a record after halt, truncation,
// checksum mismatch, or trailing bytes — is an error.
func Decode(r io.Reader) (*emu.Trace, Summary, error) {
	fail := func(format string, args ...interface{}) (*emu.Trace, Summary, error) {
		return nil, Summary{}, fmt.Errorf("traceio: "+format, args...)
	}

	tee := newHashTee(r)

	readFull := func(n int) ([]byte, error) {
		b := make([]byte, n)
		if _, err := io.ReadFull(tee, b); err != nil {
			return nil, fmt.Errorf("truncated file: %w", err)
		}
		return b, nil
	}
	uvarint := func() (uint64, error) {
		v, err := binary.ReadUvarint(tee)
		if err != nil {
			return 0, fmt.Errorf("truncated file: %w", err)
		}
		return v, nil
	}
	varint := func() (int64, error) {
		v, err := binary.ReadVarint(tee)
		if err != nil {
			return 0, fmt.Errorf("truncated file: %w", err)
		}
		return v, nil
	}
	str := func(bound int) (string, error) {
		n, err := uvarint()
		if err != nil {
			return "", err
		}
		if n > uint64(bound) {
			return "", fmt.Errorf("string length %d exceeds bound %d", n, bound)
		}
		b, err := readFull(int(n))
		if err != nil {
			return "", err
		}
		return string(b), nil
	}

	// Header.
	magic, err := readFull(len(Magic))
	if err != nil {
		return fail("%v", err)
	}
	if string(magic) != Magic {
		return fail("bad magic %q (not a trace file?)", magic)
	}
	version, err := uvarint()
	if err != nil {
		return fail("%v", err)
	}
	if version != Version {
		return fail("unsupported format version %d (this build reads version %d)", version, Version)
	}
	isaID, err := str(maxName)
	if err != nil {
		return fail("reading isa: %v", err)
	}
	if isaID != ISA {
		return fail("foreign ISA %q (this build replays %q)", isaID, ISA)
	}
	wordBytes, err := uvarint()
	if err != nil {
		return fail("%v", err)
	}
	if wordBytes != WordBytes {
		return fail("word size %d bytes (this build replays %d-byte words)", wordBytes, WordBytes)
	}
	name, err := str(maxName)
	if err != nil {
		return fail("reading program name: %v", err)
	}
	if name == "" {
		return fail("empty program name")
	}

	// Static table. The backing array is allocated once the count is known
	// (bounded), so DynInst.Static pointers into it stay stable.
	nStatics, err := uvarint()
	if err != nil {
		return fail("%v", err)
	}
	if nStatics == 0 || nStatics > maxStatics {
		return fail("static table size %d outside [1,%d]", nStatics, maxStatics)
	}
	statics := make([]isa.Inst, nStatics)
	pcs := make(map[uint64]bool, nStatics)
	for i := range statics {
		in := &statics[i]
		pc, err := uvarint()
		if err != nil {
			return fail("static %d: %v", i, err)
		}
		fixed, err := readFull(6)
		if err != nil {
			return fail("static %d: %v", i, err)
		}
		imm, err := varint()
		if err != nil {
			return fail("static %d: %v", i, err)
		}
		target, err := uvarint()
		if err != nil {
			return fail("static %d: %v", i, err)
		}
		tail, err := readFull(2)
		if err != nil {
			return fail("static %d: %v", i, err)
		}
		label, err := str(maxName)
		if err != nil {
			return fail("static %d label: %v", i, err)
		}
		*in = isa.Inst{
			PC: pc, Op: isa.Op(fixed[0]), Fn: isa.ALUFn(fixed[1]), Br: isa.BrFn(fixed[2]),
			Dst: isa.Reg(fixed[3]), Src1: isa.Reg(fixed[4]), Src2: isa.Reg(fixed[5]),
			Imm: imm, Target: target, MemSize: tail[0],
			Signed: tail[1]&staticSigned != 0, FPConv: tail[1]&staticFPConv != 0,
			Label: label,
		}
		if tail[1]&^(staticSigned|staticFPConv) != 0 {
			return fail("static %d at pc %#x: unknown flag bits %#x", i, pc, tail[1])
		}
		for _, reg := range []isa.Reg{in.Dst, in.Src1, in.Src2} {
			if reg != isa.RegNone && !reg.Valid() {
				return fail("static %d at pc %#x: invalid register %d", i, pc, reg)
			}
		}
		if err := in.Validate(); err != nil {
			return fail("static %d: %v", i, err)
		}
		if pcs[pc] {
			return fail("duplicate static at pc %#x", pc)
		}
		pcs[pc] = true
	}

	// Dynamic records, replayed through the trace builder.
	b := emu.NewTraceBuilder(name)
	sum := Summary{Name: name, Statics: int(nStatics)}
	for {
		idx, err := uvarint()
		if err != nil {
			return fail("record %d: %v", b.Len()+1, err)
		}
		if idx == 0 {
			break // end marker
		}
		if idx > nStatics {
			return fail("record %d: static index %d outside table of %d", b.Len()+1, idx-1, nStatics)
		}
		in := &statics[idx-1]
		flags, err := tee.ReadByte()
		if err != nil {
			return fail("record %d: truncated file: %v", b.Len()+1, err)
		}
		if flags&^(flagTaken|flagEffAddr|flagNextPC) != 0 {
			return fail("record %d: unknown flag bits %#x", b.Len()+1, flags)
		}
		if (flags&flagEffAddr != 0) != in.IsMem() {
			return fail("record %d at pc %#x: effective-address flag disagrees with op %s", b.Len()+1, in.PC, in.Op)
		}
		if flags&flagTaken != 0 && !in.IsCondBranch() {
			return fail("record %d at pc %#x: taken flag on non-branch op %s", b.Len()+1, in.PC, in.Op)
		}
		if (flags&flagNextPC != 0) != in.IsReturn() {
			return fail("record %d at pc %#x: next-PC flag disagrees with op %s", b.Len()+1, in.PC, in.Op)
		}
		var effAddr, nextPC uint64
		if flags&flagEffAddr != 0 {
			if effAddr, err = uvarint(); err != nil {
				return fail("record %d: %v", b.Len()+1, err)
			}
		}
		if flags&flagNextPC != 0 {
			if nextPC, err = uvarint(); err != nil {
				return fail("record %d: %v", b.Len()+1, err)
			}
		}
		if err := b.Append(in, effAddr, flags&flagTaken != 0, nextPC); err != nil {
			return fail("record %d: %v", b.Len()+1, err)
		}
		switch {
		case in.IsLoad():
			sum.Loads++
		case in.IsStore():
			sum.Stores++
		}
	}

	// Footer. The payload checksum covers everything up to (excluding) the
	// stored checksum, so snapshot it before reading the stored one.
	count, err := uvarint()
	if err != nil {
		return fail("footer: %v", err)
	}
	if count != b.Len() {
		return fail("footer declares %d records, file holds %d", count, b.Len())
	}
	wantSum := tee.payloadSum()
	stored, err := readFull(sha256.Size)
	if err != nil {
		return fail("footer checksum: %v", err)
	}
	if !bytes.Equal(stored, wantSum) {
		return fail("checksum mismatch: file corrupt or truncated")
	}
	if _, err := tee.ReadByte(); err != io.EOF {
		return fail("trailing bytes after footer")
	}

	t, err := b.Trace()
	if err != nil {
		return fail("%v", err)
	}
	sum.Insts = t.Len()
	sum.Hash = hex.EncodeToString(tee.fileSum())
	return t, sum, nil
}

// WriteFile encodes the trace to path (creating or truncating it) and
// returns the encoding summary.
func WriteFile(path string, t *emu.Trace) (Summary, error) {
	f, err := os.Create(path)
	if err != nil {
		return Summary{}, fmt.Errorf("traceio: %w", err)
	}
	sum, err := Encode(f, t)
	if cerr := f.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("traceio: %w", cerr)
	}
	if err != nil {
		os.Remove(path)
		return Summary{}, err
	}
	return sum, nil
}

// ReadFile decodes the trace file at path.
func ReadFile(path string) (*emu.Trace, Summary, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, Summary{}, fmt.Errorf("traceio: %w", err)
	}
	defer f.Close()
	t, sum, err := Decode(f)
	if err != nil {
		return nil, Summary{}, fmt.Errorf("%w (file %s)", err, path)
	}
	return t, sum, nil
}

// FileHash returns the hex SHA-256 of the file at path — a trace's content
// identity, without decoding it.
func FileHash(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", fmt.Errorf("traceio: %w", err)
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", fmt.Errorf("traceio: hashing %s: %w", path, err)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}
