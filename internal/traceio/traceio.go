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
// flags), once each, in first-execution order — the trace's own table,
// written as it stands, and the only order the decoder accepts. Each dynamic
// record is then a static-table index plus the per-execution facts: the
// effective address for memory operations, the outcome for conditional
// branches, and the architectural target for indirect returns. Store
// sequence numbers and the per-load oracle memory dependence are *not*
// stored — the decoder replays them through emu.TraceBuilder, the same
// builder emu.RecordTrace records through, so a decoded trace equals a
// freshly recorded one record for record, static index included.
// Architectural values and the communicating store's address are in neither:
// no record carries them. A footer closes the file with the record count and
// a SHA-256 checksum over everything before it, so truncation and corruption
// fail loudly instead of replaying a wrong workload.
//
// Content identity is the hex SHA-256 of the whole file. It appears in
// committed-corpus filenames (see Manifest), in the trace experiment's
// scope string — and therefore in every sweep pair key, checkpoint key, and
// server result-cache key — exactly like scenario content hashes. The
// checksum and the content identity come from one SHA-256 pass: the
// checksum is its sum before the stored checksum, and the identity its sum
// after it.
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
// written. It writes the trace's static table as it stands: every trace
// keeps its table canonical (the statics its records execute, in
// first-execution order; see emu.TraceBuilder), so encoding is
// deterministic — the same stream always yields the same bytes, and
// decode→re-encode round-trips byte-identically.
func Encode(w io.Writer, t *emu.Trace) (Summary, error) {
	if t.Len() == 0 {
		return Summary{}, errors.New("traceio: refusing to encode an empty trace")
	}
	if len(t.Name()) == 0 || len(t.Name()) > maxName {
		return Summary{}, fmt.Errorf("traceio: trace name length %d outside [1,%d]", len(t.Name()), maxName)
	}
	statics := t.Statics()
	if len(statics) > maxStatics {
		return Summary{}, fmt.Errorf("traceio: %d static instructions exceed the format bound %d", len(statics), maxStatics)
	}
	// Two statics sharing a PC would make replay ambiguous.
	pcs := make(map[uint64]bool, len(statics))
	for i := range statics {
		in := &statics[i]
		if pcs[in.PC] {
			return Summary{}, fmt.Errorf("traceio: two statics at pc %#x", in.PC)
		}
		pcs[in.PC] = true
		if err := in.Validate(); err != nil {
			return Summary{}, fmt.Errorf("traceio: %w", err)
		}
	}

	e := newEncoder(w)
	e.header(t.Name())
	e.statics(statics)
	sum := Summary{Name: t.Name(), Statics: len(statics), Insts: t.Len()}
	cur := t.Cursor(0)
	for seq := uint64(1); seq <= t.Len(); seq++ {
		d, err := cur.Get(seq)
		if err != nil {
			return Summary{}, err
		}
		in := cur.Static(d)
		e.record(d.StaticIndex(), in, d.EffAddr(), d.Taken(), d.NextPC())
		switch {
		case in.IsLoad():
			sum.Loads++
		case in.IsStore():
			sum.Stores++
		}
	}
	hash, err := e.finish(t.Len())
	if err != nil {
		return Summary{}, err
	}
	sum.Hash = hash
	return sum, nil
}

// encoder writes the container format. Everything funnels through one
// buffered writer that also feeds the hash, so the checksum and the content
// hash are computed in the same pass as the write. The first write error
// sticks, and finish reports it.
type encoder struct {
	w       io.Writer
	bw      *bufio.Writer
	hash    hash.Hash
	scratch []byte
	err     error
}

func newEncoder(w io.Writer) *encoder {
	e := &encoder{w: w, hash: sha256.New()}
	e.bw = bufio.NewWriter(io.MultiWriter(w, e.hash))
	return e
}

func (e *encoder) write(b []byte) {
	if e.err == nil {
		_, e.err = e.bw.Write(b)
	}
}

func (e *encoder) writeByte(b byte) {
	if e.err == nil {
		e.err = e.bw.WriteByte(b)
	}
}

func (e *encoder) uvarint(v uint64) {
	e.scratch = binary.AppendUvarint(e.scratch[:0], v)
	e.write(e.scratch)
}

func (e *encoder) varint(v int64) {
	e.scratch = binary.AppendVarint(e.scratch[:0], v)
	e.write(e.scratch)
}

func (e *encoder) str(s string) {
	e.uvarint(uint64(len(s)))
	e.write([]byte(s))
}

// header writes the format identity and the program name.
func (e *encoder) header(name string) {
	e.write([]byte(Magic))
	e.uvarint(Version)
	e.str(ISA)
	e.uvarint(WordBytes)
	e.str(name)
}

// statics writes the static table.
func (e *encoder) statics(table []isa.Inst) {
	e.uvarint(uint64(len(table)))
	for i := range table {
		in := &table[i]
		var flags byte
		if in.Signed {
			flags |= staticSigned
		}
		if in.FPConv {
			flags |= staticFPConv
		}
		e.uvarint(in.PC)
		e.write([]byte{byte(in.Op), byte(in.Fn), byte(in.Br), byte(in.Dst), byte(in.Src1), byte(in.Src2)})
		e.varint(in.Imm)
		e.uvarint(in.Target)
		e.write([]byte{in.MemSize, flags})
		e.str(in.Label)
	}
}

// record writes one dynamic record: its static's table index + 1 (the zero
// index is the end marker), a flag byte, then the facts the static's op
// needs — the effective address of a memory operation and the target of a
// return.
func (e *encoder) record(index uint32, in *isa.Inst, effAddr uint64, taken bool, nextPC uint64) {
	e.uvarint(uint64(index) + 1)
	var flags byte
	if in.IsMem() {
		flags |= flagEffAddr
	}
	if in.IsCondBranch() && taken {
		flags |= flagTaken
	}
	if in.IsReturn() {
		flags |= flagNextPC
	}
	e.writeByte(flags)
	if in.IsMem() {
		e.uvarint(effAddr)
	}
	if in.IsReturn() {
		e.uvarint(nextPC)
	}
}

// finish closes the records with the end marker and writes the footer —
// the record count n, then the payload checksum — and returns the content
// hash of every byte written.
func (e *encoder) finish(n uint64) (string, error) {
	e.uvarint(0)
	e.uvarint(n)
	if e.err == nil {
		e.err = e.bw.Flush()
	}
	if e.err != nil {
		return "", e.err
	}
	// Sum leaves the hash running: its sum before the checksum is the
	// checksum, and its sum after it the content hash.
	sum := e.hash.Sum(nil)
	if _, err := e.w.Write(sum); err != nil {
		return "", err
	}
	e.hash.Write(sum)
	return hex.EncodeToString(e.hash.Sum(nil)), nil
}

// hashTee reads from a buffered reader and folds exactly the *consumed*
// bytes — never the buffer's read-ahead — into one hasher, whose sum gives
// the checksum verified against the footer and the whole-file content hash.
// Consumed bytes are batched in a small buffer so varint-by-varint decoding
// does not pay one hash call per byte.
type hashTee struct {
	r    *bufio.Reader
	hash hash.Hash
	buf  []byte
}

func newHashTee(r io.Reader) *hashTee {
	return &hashTee{r: bufio.NewReader(r), hash: sha256.New(), buf: make([]byte, 0, 4096)}
}

func (t *hashTee) drain() {
	t.hash.Write(t.buf)
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
		t.hash.Write(p[:n])
	}
	return n, err
}

// sum returns the SHA-256 of every byte consumed so far.
func (t *hashTee) sum() []byte {
	t.drain()
	return t.hash.Sum(nil)
}

// Decode reads one trace from r, strictly validating structure, control
// flow, and the checksum, and rebuilds the full dynamic stream (SSNs,
// oracle dependences) through emu.TraceBuilder, which takes over the file's
// static table. It returns the trace and a summary whose Hash is the content
// identity of the bytes consumed. Any deviation — wrong magic, unsupported
// version, foreign ISA, malformed statics, a static table that is not in
// first-execution order or lists a static no record executes, broken
// control flow, a record after halt, truncation, checksum mismatch, or
// trailing bytes — is an error. Only the canonical encoding of a stream
// decodes, so one stream has one content identity.
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

	// Static table. It is allocated once the count is known (bounded) and
	// handed to the trace builder whole; records name their static by index.
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

	// Dynamic records, replayed through the trace builder. The builder
	// refuses a record whose static comes after one no record has executed
	// yet and, in Trace below, a static no record executes, so only the
	// canonical table decodes.
	b := emu.NewTraceBuilder(name, statics)
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
		if err := b.Append(uint32(idx-1), effAddr, flags&flagTaken != 0, nextPC); err != nil {
			return fail("record %d: %v", b.Len()+1, err)
		}
		switch {
		case in.IsLoad():
			sum.Loads++
		case in.IsStore():
			sum.Stores++
		}
	}

	// Footer. The checksum covers everything up to (excluding) the stored
	// checksum, so take it before reading the stored one.
	count, err := uvarint()
	if err != nil {
		return fail("footer: %v", err)
	}
	if count != b.Len() {
		return fail("footer declares %d records, file holds %d", count, b.Len())
	}
	wantSum := tee.sum()
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
	sum.Hash = hex.EncodeToString(tee.sum())
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
