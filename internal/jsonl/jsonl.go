// Package jsonl owns the crash rules of the repo's append-only JSONL files:
// the service's write-ahead log (internal/simstore), its result cache
// (internal/simserver) and the sweep checkpoint (internal/experiments). Each
// store decides only its record type, which lines it keeps, and when it
// fsyncs; the rules for surviving a crash live here:
//
//   - Append writes one whole line in one call, so a crash mid-append can
//     tear only the final line.
//   - Scan is tolerant: it skips blank lines, counts the lines the store's
//     keep rule rejects as corrupt instead of failing, and caps no line.
//   - Open newline-terminates a torn final line, so the next record lands on
//     its own line; the fragment stays counted as corrupt until a Rewrite.
//   - Rewrite replaces the file atomically: temp file, fsync, rename, and an
//     fsync of the directory, without which the rename is not durable.
//
// A store that must survive power loss after every record calls Sync after
// Append; Close always fsyncs.
package jsonl

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"sync"
)

// errClosed is returned by operations on a closed Log.
var errClosed = errors.New("jsonl: log is closed")

// Hooks intercepts a Log's file writes and fsyncs — the fault-injection seam
// the durability tests use to tear or fail an operation at a chosen point.
// Sync also sees the temp file and directory fsyncs of a Rewrite. A nil hook
// is the real operation.
type Hooks struct {
	Write func(f *os.File, b []byte) (int, error)
	Sync  func(f *os.File) error
}

// Scan reads the file at path and calls keep with each non-blank line,
// newline stripped. keep reports whether the line is a valid record; corrupt
// counts the lines it rejected. The line aliases the read buffer, so keep
// must copy anything it retains (json.Unmarshal does). A missing file has no
// lines.
func Scan(path string, keep func(line []byte) bool) (corrupt int, err error) {
	b, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	for line := range bytes.Lines(b) {
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		if !keep(bytes.TrimSuffix(line, []byte("\n"))) {
			corrupt++
		}
	}
	return corrupt, nil
}

// Log is an open JSONL file for appends. All methods are safe for concurrent
// use.
type Log struct {
	path  string
	hooks Hooks

	mu sync.Mutex
	f  *os.File // nil once closed
}

// Open opens (or creates) the log at path for appends and newline-terminates
// a torn final line. Only the last byte is read. hooks may be zero.
func Open(path string, hooks Hooks) (*Log, error) {
	if hooks.Write == nil {
		hooks.Write = (*os.File).Write
	}
	if hooks.Sync == nil {
		hooks.Sync = (*os.File).Sync
	}
	f, err := openAppend(path)
	if err != nil {
		return nil, err
	}
	l := &Log{path: path, hooks: hooks, f: f}
	if err := l.repairTail(); err != nil {
		f.Close()
		return nil, err
	}
	return l, nil
}

func openAppend(path string) (*os.File, error) {
	return os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_RDWR, 0o644)
}

// repairTail terminates a torn final line. It does not fsync: the caller's
// next Sync or Close makes the repair durable, and until then a crash leaves
// a tail the next Open repairs again.
func (l *Log) repairTail() error {
	st, err := l.f.Stat()
	if err != nil || st.Size() == 0 {
		return err
	}
	last := make([]byte, 1)
	if _, err := l.f.ReadAt(last, st.Size()-1); err != nil || last[0] == '\n' {
		return err
	}
	_, err = l.hooks.Write(l.f, []byte{'\n'})
	return err
}

// Append writes line and its terminating newline in one write. line must not
// contain a newline; its spare capacity may be used for the terminator.
// Append does not fsync: call Sync when the record must survive power loss.
func (l *Log) Append(line []byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return errClosed
	}
	_, err := l.hooks.Write(l.f, append(line, '\n'))
	return err
}

// Sync fsyncs the log.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return errClosed
	}
	return l.hooks.Sync(l.f)
}

// Rewrite atomically replaces the log's contents with lines: it writes them
// to a temp file, fsyncs it, renames it over the log, reopens the log for
// appends and fsyncs the directory. The rename is the commit point: an error
// before it leaves the log as it was.
func (l *Log) Rewrite(lines [][]byte) error {
	var buf bytes.Buffer
	for _, line := range lines {
		buf.Write(line)
		buf.WriteByte('\n')
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return errClosed
	}
	tmp := l.path + ".compact"
	err := l.writeSynced(tmp, buf.Bytes())
	if err == nil {
		err = os.Rename(tmp, l.path)
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	l.f.Close()
	if l.f, err = openAppend(l.path); err != nil {
		return err // l.f is nil: the log is closed
	}
	dir, err := os.Open(filepath.Dir(l.path))
	if err != nil {
		return err
	}
	return l.syncClose(dir)
}

func (l *Log) writeSynced(path string, b []byte) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := l.hooks.Write(f, b); err != nil {
		f.Close()
		return err
	}
	return l.syncClose(f)
}

func (l *Log) syncClose(f *os.File) error {
	err := l.hooks.Sync(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// Close fsyncs and closes the log. Closing twice is a no-op; other methods
// fail afterwards.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	err := l.syncClose(l.f)
	l.f = nil
	return err
}
