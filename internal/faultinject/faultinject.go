// Package faultinject provides controllable failure wrappers used by the
// chaos test suites: a net.Conn that injects write errors, latency, and
// mid-request disconnects; a net.Listener that wraps every
// accepted connection; and an os.File-style wrapper that fails writes and
// fsyncs on cue.
//
// The wrappers are deliberately deterministic: failures fire at configured
// call counts, not probabilistically, so a chaos test asserting "the third
// write on this connection dies" reproduces the same way every run. All
// wrappers are safe for concurrent use.
package faultinject

import (
	"errors"
	"io"
	"net"
	"os"
	"sync"
	"time"
)

// ErrInjected is the default error returned by a triggered fault.
var ErrInjected = errors.New("faultinject: injected fault")

// Conn wraps a net.Conn with injectable faults. The zero configuration is
// a transparent pass-through.
type Conn struct {
	net.Conn

	mu     sync.Mutex
	writes int // completed Write calls

	failWriteAt int // 1-based Write call index at which writes start failing
	writeErr    error
	closeOnFail bool // also close the underlying conn when a fault fires

	latency time.Duration // added before every Read and Write
}

// ConnOption configures a Conn.
type ConnOption func(*Conn)

// FailWriteAfter makes Write fail from the nth call on. A nil err uses
// ErrInjected.
func FailWriteAfter(n int, err error) ConnOption {
	return func(c *Conn) { c.failWriteAt = n; c.writeErr = orInjected(err) }
}

// CloseOnFail closes the underlying connection when an injected write
// fault fires, simulating a peer that drops the TCP connection
// mid-request rather than one that merely errors locally.
func CloseOnFail() ConnOption {
	return func(c *Conn) { c.closeOnFail = true }
}

// SetLatency changes the injected per-call latency on a live connection.
// Load tests use it to stall a serving connection mid-run — every
// subsequent Read and Write pays d — and then lift the stall, without
// tearing the connection down.
func (c *Conn) SetLatency(d time.Duration) {
	c.mu.Lock()
	c.latency = d
	c.mu.Unlock()
}

// WrapConn wraps inner with the configured faults.
func WrapConn(inner net.Conn, opts ...ConnOption) *Conn {
	c := &Conn{Conn: inner}
	for _, o := range opts {
		o(c)
	}
	return c
}

func orInjected(err error) error {
	if err == nil {
		return ErrInjected
	}
	return err
}

func (c *Conn) Read(p []byte) (int, error) {
	c.mu.Lock()
	latency := c.latency
	c.mu.Unlock()
	if latency > 0 {
		time.Sleep(latency)
	}
	return c.Conn.Read(p)
}

func (c *Conn) Write(p []byte) (int, error) {
	c.mu.Lock()
	c.writes++
	fail := c.failWriteAt > 0 && c.writes >= c.failWriteAt
	err := c.writeErr
	closeOnFail := c.closeOnFail
	latency := c.latency
	c.mu.Unlock()
	if latency > 0 {
		time.Sleep(latency)
	}
	if fail {
		if closeOnFail {
			c.Conn.Close()
		}
		return 0, err
	}
	return c.Conn.Write(p)
}

// Listener wraps a net.Listener so every accepted connection is wrapped
// with the configured faults. OnAccept, when set, is called with each
// wrapped connection (for tests that want a handle to trigger faults on
// the live connection).
type Listener struct {
	net.Listener

	mu       sync.Mutex
	opts     []ConnOption
	onAccept func(*Conn)
}

// WrapListener wraps ln; every accepted conn receives opts.
func WrapListener(ln net.Listener, opts ...ConnOption) *Listener {
	return &Listener{Listener: ln, opts: opts}
}

// OnAccept registers a callback invoked with every wrapped connection.
func (l *Listener) OnAccept(fn func(*Conn)) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.onAccept = fn
}

func (l *Listener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	l.mu.Lock()
	wrapped := WrapConn(conn, l.opts...)
	fn := l.onAccept
	l.mu.Unlock()
	if fn != nil {
		fn(wrapped)
	}
	return wrapped, nil
}

// OSFile is the file surface the storage layer requires of its WAL and
// snapshot files; *os.File satisfies it, and File wraps any implementation
// with injectable faults. It structurally matches storage.File without
// importing that package.
type OSFile interface {
	io.Writer
	io.Closer
	Sync() error
	Truncate(size int64) error
	Seek(offset int64, whence int) (int64, error)
	Stat() (os.FileInfo, error)
}

// File wraps an OSFile with write and fsync fault injection.
type File struct {
	OSFile

	mu     sync.Mutex
	writes int
	syncs  int

	failWriteAt int // 1-based Write call index at which writes start failing
	writeErr    error
	failSyncAt  int // 1-based Sync call index at which fsyncs start failing
	syncErr     error
}

// FileOption configures a File.
type FileOption func(*File)

// FailFileWriteAfter makes Write fail from the nth call on. A nil err uses
// ErrInjected.
func FailFileWriteAfter(n int, err error) FileOption {
	return func(f *File) { f.failWriteAt = n; f.writeErr = orInjected(err) }
}

// FailSyncAfter makes Sync fail from the nth call on. A nil err uses
// ErrInjected.
func FailSyncAfter(n int, err error) FileOption {
	return func(f *File) { f.failSyncAt = n; f.syncErr = orInjected(err) }
}

// WrapFile wraps inner with the configured faults.
func WrapFile(inner OSFile, opts ...FileOption) *File {
	f := &File{OSFile: inner}
	for _, o := range opts {
		o(f)
	}
	return f
}

func (f *File) Write(p []byte) (int, error) {
	f.mu.Lock()
	f.writes++
	fail := f.failWriteAt > 0 && f.writes >= f.failWriteAt
	err := f.writeErr
	f.mu.Unlock()
	if fail {
		return 0, err
	}
	return f.OSFile.Write(p)
}

func (f *File) Sync() error {
	f.mu.Lock()
	f.syncs++
	fail := f.failSyncAt > 0 && f.syncs >= f.failSyncAt
	err := f.syncErr
	f.mu.Unlock()
	if fail {
		return err
	}
	return f.OSFile.Sync()
}
