// Package spill is the engine's out-of-core layer: a per-query memory
// governor (a byte budget shared by all operators of one query, tracked via
// the row codec's encoded sizes) and a temp-file run format that operators
// write sorted runs and hash partitions into when the governor denies them
// memory. It is what turns the executor's strictly-in-memory hash join, hash
// aggregation, and sort into grace hash join, hybrid hash aggregation, and
// external merge sort — bounded memory over unbounded data, the property the
// paper's "Fail" table entries show the comparison systems losing.
//
// Run files are block-framed so read-back is buffered, not row-at-a-time IO.
// The framing is the shared internal/blockio format (a versioned file header
// followed by checksummed frames, the same layer the storage engine's
// journal uses): each frame's payload is aux=rowCount rows in the value
// package's binary row encoding (the same codec shuffles use, so a spilled
// row round-trips bit-identically — NaN payloads, labels, and matrix shapes
// included), and the per-frame checksum turns silent temp-file corruption
// into a diagnosable decode error instead of garbage rows.
//
// All temp files of one query live in one MkdirTemp directory that
// Manager.Close removes at query end; the file-count accounting lets tests
// assert that no run leaks.
package spill

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"

	"relalg/internal/blockio"
	"relalg/internal/value"
)

// DirPrefix names the per-query temp directories (under os.TempDir()); the
// cleanup tests key on it.
const DirPrefix = "relalg-spill-"

// The run-file header: spill runs are process-lifetime temp files, but the
// header still versions the format so a stale run from a crashed previous
// build can never be mis-decoded.
const (
	runMagic   = "LASPILL1"
	runVersion = 1
)

// blockBytes is the target encoded payload size of one run-file block;
// maxBlockPayload caps what a reader will allocate for a frame (one giant
// row can legitimately exceed the target, but a corrupt length prefix is
// caught by the frame checksum and this bound).
const (
	blockBytes      = 256 << 10
	maxBlockPayload = 1 << 30
)

// Hooks receive the spill layer's accounting events; either field may be nil.
// The executor wires them to the cluster's SpillEvents/BytesSpilled counters
// and to the "spill" Timings label.
type Hooks struct {
	// RunSpilled is called once per finished run with its file size.
	RunSpilled func(bytes int64)
	// TrackIO returns a stopwatch-stop function; it brackets every spill
	// filesystem call — the temp directory's creation and removal, run-file
	// create, open, read, write, close and remove — so spill IO shows up as
	// its own entry in the per-operator timing breakdown.
	TrackIO func() func()
	// WriteFault, when set, is consulted once per run writer with the run's
	// label and the owning task's attempt number; a non-nil return makes the
	// writer's block writes fail with that error. This is the fault-injection
	// point for spill-file write failures — the core wires it to the
	// cluster's injector, which never faults a task's final allowed attempt.
	WriteFault func(label string, attempt int) error
}

// Manager owns one query's spill state: the governor, the temp directory,
// and every run file created under it. Safe for concurrent use by the
// per-partition operator goroutines.
type Manager struct {
	gov   *Governor
	hooks Hooks

	mu     sync.Mutex
	dir    string
	seq    int
	live   int // run files created and not yet removed
	closed bool
}

// NewManager creates a manager with the given byte budget (<= 0 disables
// spilling entirely). The temp directory is created lazily on first spill, so
// queries that stay within budget never touch the filesystem.
func NewManager(budget int64, hooks Hooks) *Manager {
	return &Manager{gov: NewGovernor(budget), hooks: hooks}
}

// Enabled reports whether a memory budget is active (nil-safe).
func (m *Manager) Enabled() bool { return m != nil && m.gov.Budget() > 0 }

// Governor returns the query's memory governor (nil-safe).
func (m *Manager) Governor() *Governor {
	if m == nil {
		return nil
	}
	return m.gov
}

// Dir returns the temp directory, or "" before the first spill.
func (m *Manager) Dir() string {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.dir
}

// LiveRuns returns the number of run files currently on disk.
func (m *Manager) LiveRuns() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.live
}

// track starts the IO stopwatch, returning the stop function.
func (m *Manager) track() func() {
	if m == nil || m.hooks.TrackIO == nil {
		return func() {}
	}
	return m.hooks.TrackIO()
}

// newFile creates the next run file, creating the temp directory on first
// use.
func (m *Manager) newFile(label string) (*os.File, string, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	defer m.track()() // after the lock: waiting on it is not spill IO
	if m.closed {
		return nil, "", fmt.Errorf("spill: manager closed")
	}
	if m.dir == "" {
		dir, err := os.MkdirTemp("", DirPrefix)
		if err != nil {
			return nil, "", fmt.Errorf("spill: create temp dir: %w", err)
		}
		m.dir = dir
	}
	m.seq++
	path := filepath.Join(m.dir, fmt.Sprintf("%06d-%s.run", m.seq, label))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o600)
	if err != nil {
		return nil, "", fmt.Errorf("spill: create run file: %w", err)
	}
	m.live++
	return f, path, nil
}

// fileRemoved adjusts the live-file accounting.
func (m *Manager) fileRemoved() {
	m.mu.Lock()
	m.live--
	m.mu.Unlock()
}

// Close removes the temp directory and every run file under it. It is called
// once at query end; creating writers afterwards fails.
func (m *Manager) Close() error {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil
	}
	m.closed = true
	m.live = 0
	if m.dir == "" {
		return nil
	}
	defer m.track()()
	if err := os.RemoveAll(m.dir); err != nil {
		return fmt.Errorf("spill: remove temp dir: %w", err)
	}
	return nil
}

// NewWriter opens a new run file for writing. The label (sanitized to
// [a-z0-9-]) names the operator and partition for debuggability.
func (m *Manager) NewWriter(label string) (*Writer, error) {
	return m.NewWriterAt(label, 0)
}

// NewWriterAt is NewWriter for a run created inside a retryable task's
// attempt'th execution: the attempt keys the write-fault draw, so retried
// tasks re-create their runs under a fresh (and eventually clean) attempt.
func (m *Manager) NewWriterAt(label string, attempt int) (*Writer, error) {
	f, path, err := m.newFile(sanitize(label))
	if err != nil {
		return nil, err
	}
	w := &Writer{
		m:    m,
		f:    f,
		bw:   bufio.NewWriterSize(f, 64<<10),
		path: path,
	}
	if m.hooks.WriteFault != nil {
		w.fail = m.hooks.WriteFault(label, attempt)
	}
	if err := blockio.WriteHeader(w.bw, blockio.Header{Magic: runMagic, Version: runVersion}); err != nil {
		stop := m.track()
		_ = w.f.Close()
		_ = os.Remove(path)
		stop()
		m.fileRemoved()
		return nil, fmt.Errorf("spill: write run header: %w", err)
	}
	w.bytes += blockio.HeaderLen
	return w, nil
}

// sanitize maps a label onto filename-safe characters.
func sanitize(label string) string {
	out := make([]byte, 0, len(label))
	for i := 0; i < len(label); i++ {
		c := label[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '-':
			out = append(out, c)
		default:
			out = append(out, '_')
		}
	}
	return string(out)
}

// Writer appends rows to a run file, framing them into blocks. Not safe for
// concurrent use (each partition goroutine owns its writers).
type Writer struct {
	m     *Manager
	f     *os.File
	bw    *bufio.Writer
	path  string
	block []byte // encoded rows of the current block
	nrows uint32 // rows in the current block
	rows  int64
	bytes int64
	done  bool
	fail  error // injected write fault; every block write fails with it
}

// Append encodes one row into the current block, flushing the block to the
// file when it reaches the target size.
func (w *Writer) Append(r value.Row) error {
	w.block = value.AppendRow(w.block, r)
	w.nrows++
	w.rows++
	if len(w.block) >= blockBytes {
		return w.flushBlock()
	}
	return nil
}

// Rows returns the rows appended so far.
func (w *Writer) Rows() int64 { return w.rows }

func (w *Writer) flushBlock() error {
	if w.nrows == 0 {
		return nil
	}
	if w.fail != nil {
		return fmt.Errorf("spill: write block: %w", w.fail)
	}
	stop := w.m.track()
	defer stop()
	n, err := blockio.WriteFrame(w.bw, w.nrows, w.block)
	if err != nil {
		return fmt.Errorf("spill: write block: %w", err)
	}
	w.bytes += n
	w.block = w.block[:0]
	w.nrows = 0
	return nil
}

// Finish flushes and closes the file, charges the spill to the hooks, and
// returns the readable Run. The writer must not be used afterwards.
func (w *Writer) Finish() (*Run, error) {
	if w.done {
		return nil, fmt.Errorf("spill: writer already finished")
	}
	w.done = true
	if err := w.flushBlock(); err != nil {
		_ = w.f.Close() // the write error is the actionable one
		return nil, err
	}
	stop := w.m.track()
	ferr := w.bw.Flush()
	cerr := w.f.Close()
	stop()
	if ferr != nil {
		return nil, fmt.Errorf("spill: flush run: %w", ferr)
	}
	if cerr != nil {
		return nil, fmt.Errorf("spill: close run: %w", cerr)
	}
	if w.m.hooks.RunSpilled != nil {
		w.m.hooks.RunSpilled(w.bytes)
	}
	return &Run{m: w.m, path: w.path, Rows: w.rows, Bytes: w.bytes}, nil
}

// Abort closes and removes a half-written run (error paths).
func (w *Writer) Abort() error {
	if w.done {
		return nil
	}
	w.done = true
	stop := w.m.track()
	cerr := w.f.Close()
	rerr := os.Remove(w.path)
	stop()
	w.m.fileRemoved()
	if cerr != nil {
		return fmt.Errorf("spill: abort run: %w", cerr)
	}
	if rerr != nil {
		return fmt.Errorf("spill: abort run: %w", rerr)
	}
	return nil
}

// Run is one finished, readable spill run.
type Run struct {
	m     *Manager
	path  string
	Rows  int64
	Bytes int64
}

// Reader opens the run for sequential reading. A run supports any number of
// sequential read passes (each Reader is independent).
func (r *Run) Reader() (*Reader, error) {
	defer r.m.track()()
	f, err := os.Open(r.path)
	if err != nil {
		return nil, fmt.Errorf("spill: open run: %w", err)
	}
	br := bufio.NewReaderSize(f, 64<<10)
	if _, err := blockio.ReadHeader(br, runMagic, runVersion); err != nil {
		_ = f.Close()
		return nil, fmt.Errorf("spill: open run: %w", err)
	}
	return &Reader{m: r.m, f: f, br: br}, nil
}

// Remove deletes the run file; the manager's Close catches anything the
// operators forget, but operators remove runs eagerly to bound disk use.
func (r *Run) Remove() error {
	stop := r.m.track()
	err := os.Remove(r.path)
	stop()
	if err != nil {
		return fmt.Errorf("spill: remove run: %w", err)
	}
	r.m.fileRemoved()
	return nil
}

// Reader streams a run's rows back, decoding one block at a time.
type Reader struct {
	m     *Manager
	f     *os.File
	br    *bufio.Reader
	block []value.Row
	i     int
}

// Next returns the next row. The second result is false at end of run.
func (r *Reader) Next() (value.Row, bool, error) {
	for r.i >= len(r.block) {
		ok, err := r.readBlock()
		if err != nil {
			return nil, false, err
		}
		if !ok {
			return nil, false, nil
		}
	}
	row := r.block[r.i]
	r.i++
	return row, true, nil
}

// readBlock loads the next block; false means clean EOF.
func (r *Reader) readBlock() (bool, error) {
	stop := r.m.track()
	defer stop()
	buf, nrowsU32, err := blockio.ReadFrame(r.br, maxBlockPayload)
	if err != nil {
		if err == io.EOF {
			return false, nil
		}
		return false, fmt.Errorf("spill: read block: %w", err)
	}
	nrows := int(nrowsU32)
	rows := make([]value.Row, nrows)
	for i := range rows {
		rows[i], buf, err = value.DecodeRow(buf)
		if err != nil {
			return false, fmt.Errorf("spill: decode spilled row: %w", err)
		}
	}
	if len(buf) != 0 {
		return false, fmt.Errorf("spill: %d trailing bytes in block", len(buf))
	}
	r.block, r.i = rows, 0
	return true, nil
}

// Close closes the reader's file handle.
func (r *Reader) Close() error {
	stop := r.m.track()
	err := r.f.Close()
	stop()
	if err != nil {
		return fmt.Errorf("spill: close reader: %w", err)
	}
	return nil
}
