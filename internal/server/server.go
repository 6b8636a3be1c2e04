// Package server exposes an NNexus engine over TCP using the XML protocol
// of the wire package (paper §3.1 / Fig 7: the NNexus server answers XML
// requests over socket connections so that "client software written in any
// programming language" can link documents against the collection).
//
// The server is built to run unattended behind a production corpus:
//
//   - Shutdown drains gracefully — it stops accepting, closes idle
//     connections, lets in-flight requests finish under the caller's
//     deadline, and only then force-closes stragglers;
//   - a connection cap, and the node's one in-flight bound (the service's
//     MaxActive, shared with the HTTP API), shed excess load with a typed
//     "overloaded" wire error instead of queueing without bound;
//   - per-response write deadlines keep a stalled reader from pinning
//     goroutines forever;
//   - a panic in a handler is recovered into an "internal" error response
//     and a counter bump, not a dead process.
package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"nnexus/internal/clock"
	"nnexus/internal/core"
	"nnexus/internal/service"
	"nnexus/internal/telemetry"
	"nnexus/internal/wire"
)

// DefaultWriteTimeout bounds writing one response to a client; a reader
// stalled longer than this loses the connection rather than pinning the
// handler goroutine.
const DefaultWriteTimeout = 30 * time.Second

// DefaultMaxPipeline is how many requests one connection may have in flight
// at once. The wire protocol correlates responses to requests by Seq, so a
// pipelining client can keep that many outstanding and receive completions
// out of order; it is also the most handler goroutines a connection ever has.
// A stop-and-wait client never has more than one.
const DefaultMaxPipeline = 32

// Server serves one engine to any number of concurrent connections.
type Server struct {
	logger *log.Logger
	tel    *serverTelemetry

	// svc runs every request's stages under the node's one policy, the
	// engine call included (see internal/service), shared with every other
	// door; the server itself only carries requests and replies.
	svc *service.Service

	// writeTimeout bounds writing one response (DefaultWriteTimeout); only
	// a test shortens it.
	writeTimeout time.Duration
	maxConns     int

	// testHook, when non-nil, runs at the top of every dispatch. The
	// resilience tests use it to make handlers block or panic on cue;
	// production code never sets it.
	testHook func(*wire.Request)

	// testPostMutate, when non-nil, runs after a method has applied — for a
	// mutating one, before its quorum acknowledgement is gathered: the
	// in-process demotion window a process-kill chaos matrix cannot hit on
	// cue; production code never sets it.
	testPostMutate func(*wire.Request)

	// draining is read once per request by every connection and written
	// once, by Shutdown or Close.
	draining atomic.Bool

	mu       sync.Mutex
	listener net.Listener
	conns    map[net.Conn]struct{}
	closed   bool
	wg       sync.WaitGroup
}

// serverTelemetry is the TCP layer's connection and request accounting,
// registered on the engine's registry.
type serverTelemetry struct {
	connsTotal    *telemetry.Counter
	connsActive   *telemetry.Gauge
	connsRejected *telemetry.Counter
	requests      *telemetry.CounterVec
	errors        *telemetry.Counter
	duration      *telemetry.Histogram
	shed          *telemetry.Counter
	panics        *telemetry.Counter
	drainDuration *telemetry.Histogram
	pipelineDepth *telemetry.Histogram
	byMethod      map[string]*telemetry.Counter
	unknown       *telemetry.Counter
}

func newServerTelemetry(reg *telemetry.Registry) *serverTelemetry {
	t := &serverTelemetry{
		connsTotal: reg.Counter("nnexus_tcp_connections_total",
			"TCP protocol connections accepted."),
		connsActive: reg.Gauge("nnexus_tcp_connections_active",
			"TCP protocol connections currently open."),
		connsRejected: reg.Counter("nnexus_tcp_connections_rejected_total",
			"TCP connections refused because the connection cap was reached."),
		requests: reg.CounterVec("nnexus_tcp_requests_total",
			"XML protocol requests by method.", "method"),
		errors: reg.Counter("nnexus_tcp_request_errors_total",
			"XML protocol requests answered with an error response."),
		duration: reg.Histogram("nnexus_tcp_request_duration_seconds",
			"XML protocol request handling latency."),
		shed: reg.CounterVec("nnexus_requests_shed_total",
			"Requests rejected by load shedding, by serving layer.", "layer").With("tcp"),
		panics: reg.CounterVec("nnexus_panics_recovered_total",
			"Handler panics recovered into error responses, by serving layer.", "layer").With("tcp"),
		drainDuration: reg.Histogram("nnexus_drain_duration_seconds",
			"Time graceful shutdown spent draining in-flight work."),
		pipelineDepth: reg.Histogram("nnexus_tcp_pipeline_depth",
			"Requests in flight on a connection at dispatch time.",
			1, 2, 4, 8, 16, 32, 64, 128),
	}
	t.byMethod = make(map[string]*telemetry.Counter, len(wire.Methods))
	for m := range wire.Methods {
		t.byMethod[m] = t.requests.With(m)
	}
	t.unknown = t.requests.With("unknown")
	return t
}

// request counts one handled request.
func (t *serverTelemetry) request(method string, start time.Time, failed bool) {
	c, ok := t.byMethod[method]
	if !ok {
		c = t.unknown
	}
	c.Inc()
	if failed {
		t.errors.Inc()
	}
	t.duration.Observe(clock.Now().Sub(start).Seconds())
}

// Option configures a Server.
type Option func(*Server)

// WithMaxConns caps concurrently open connections; excess connections are
// accepted and immediately closed. Zero (the default) is unlimited.
func WithMaxConns(n int) Option {
	return func(s *Server) { s.maxConns = n }
}

// New creates a server in front of a node's service: requests execute
// against its engine under its policy. While the service's role is primary
// the server answers the repl* streaming methods from it (Shutdown and Close
// drain it, so follower connections flush a final batch and close cleanly);
// an election-managed role also answers the replVote / replLead exchanges.
// logger may be nil to disable logging.
func New(svc *service.Service, logger *log.Logger, opts ...Option) *Server {
	s := &Server{
		logger:       logger,
		tel:          newServerTelemetry(svc.Engine().Telemetry()),
		svc:          svc,
		conns:        make(map[net.Conn]struct{}),
		writeTimeout: DefaultWriteTimeout,
	}
	for _, o := range opts {
		o(s)
	}
	return s
}

// Listen starts accepting connections on addr (e.g. "127.0.0.1:7070").
// It returns immediately; the accept loop runs in the background. The
// actual bound address is returned, so addr may use port 0.
func (s *Server) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("server: listen: %w", err)
	}
	return s.Serve(ln)
}

// Serve starts accepting connections from an existing listener — the
// injection point for fault-wrapped listeners (faultinject.WrapListener)
// in chaos and open-loop load tests. The server owns ln from here on: it
// is closed on Close/Shutdown, or immediately when the server has already
// shut down. The listener's address is returned.
func (s *Server) Serve(ln net.Listener) (string, error) {
	s.mu.Lock()
	if s.closed || s.draining.Load() {
		s.mu.Unlock()
		ln.Close()
		return "", errors.New("server: already closed")
	}
	s.listener = ln
	s.mu.Unlock()
	s.wg.Add(1)
	go s.acceptLoop(ln)
	return ln.Addr().String(), nil
}

func (s *Server) acceptLoop(ln net.Listener) {
	defer s.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed || s.draining.Load() {
			s.mu.Unlock()
			conn.Close()
			return
		}
		if s.maxConns > 0 && len(s.conns) >= s.maxConns {
			s.mu.Unlock()
			conn.Close()
			s.tel.connsRejected.Inc()
			continue
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

// Draining reports whether the server has begun shutting down (and is no
// longer accepting connections). Readiness probes key off this.
func (s *Server) Draining() bool { return s.draining.Load() }

// Close stops accepting, force-closes all connections (in-flight requests
// are abandoned), and waits for handler goroutines. For a graceful stop
// use Shutdown.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.draining.Store(true)
	ln := s.listener
	s.listener = nil
	for conn := range s.conns {
		conn.Close()
	}
	s.mu.Unlock()
	if p := s.svc.Node.CurrentPrimary(); p != nil {
		// Wake blocked subscribe long-polls so their handler goroutines
		// (and with them the connection goroutines) unwind promptly.
		p.Drain()
	}
	var err error
	if ln != nil {
		err = ln.Close()
	}
	s.wg.Wait()
	return err
}

// Shutdown gracefully drains the server: it stops accepting connections,
// closes idle ones, and lets requests already being handled finish and
// flush their responses: every connection's reader is woken by a read
// deadline in the past, stops admitting, and closes the connection once its
// handlers have written what they owe. When ctx expires first, remaining
// connections are force-closed and ctx's error returned; Shutdown still
// waits for the connection goroutines to unwind, which happens as soon as
// their current handler returns. The drain duration is recorded in the
// nnexus_drain_duration_seconds histogram.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.draining.Store(true)
	ln := s.listener
	s.listener = nil
	for conn := range s.conns {
		_ = conn.SetReadDeadline(time.Unix(1, 0))
	}
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	if p := s.svc.Node.CurrentPrimary(); p != nil {
		// Replication subscribers drain like request connections: waking
		// their long-polls lets each flush a final (possibly empty) batch —
		// a whole response, never a mid-record cut — and close on a clean
		// EOF, from which the follower resumes at its applied offset.
		p.Drain()
	}
	start := clock.Now()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = ctx.Err()
		s.mu.Lock()
		for conn := range s.conns {
			conn.Close()
		}
		s.mu.Unlock()
		<-done
	}
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.tel.drainDuration.Observe(clock.Now().Sub(start).Seconds())
	return err
}

// conn is one connection: a reader (serveConn) that decodes, sheds, admits
// and hands out requests, and up to DefaultMaxPipeline handler goroutines that
// execute them and write their own responses.
type conn struct {
	s  *Server
	nc net.Conn

	// work hands a request to an idle handler. It is unbuffered: when every
	// handler is busy the reader waits here, which is the pipeline window.
	work     chan *wire.Request
	busy     atomic.Int32 // handlers executing a request
	handlers sync.WaitGroup

	// wmu guards the outgoing bytes. A response is appended to out; the
	// first handler to find nobody writing becomes the writer and keeps
	// writing until out is empty, so responses that are ready together leave
	// in one Write.
	wmu     sync.Mutex
	out     []byte
	spare   []byte // the buffer the last Write is done with
	writing bool
	failed  bool // a Write failed: the connection is closed, responses are dropped
}

// serveConn runs one connection's reader. Responses may complete out of
// order; the Seq echoed in each response lets the client re-correlate them.
// Shedding and admission happen here, before a request takes a handler;
// panics are recovered per handler, and a drain lets every dispatched request
// finish and flush before the connection closes.
func (s *Server) serveConn(nc net.Conn) {
	defer s.wg.Done()
	s.tel.connsTotal.Inc()
	s.tel.connsActive.Inc()
	c := &conn{s: s, nc: nc, work: make(chan *wire.Request)}
	defer func() {
		close(c.work)
		c.handlers.Wait() // each has written its response, or found the connection failed
		nc.Close()
		s.mu.Lock()
		delete(s.conns, nc)
		s.mu.Unlock()
		s.tel.connsActive.Dec()
	}()
	dec := wire.NewDecoder(nc)
	dec.SetLimit(service.MaxRequestBytes)
	started := 0
	for {
		if s.draining.Load() {
			return
		}
		req := new(wire.Request)
		if err := dec.Decode(req); err != nil {
			if err != io.EOF && s.logger != nil && !s.draining.Load() {
				s.logger.Printf("server: %v", err)
			}
			return
		}
		if s.draining.Load() {
			// The connection is retiring; in-flight requests finish and
			// flush, new ones are not admitted.
			return
		}
		// Shed inline: a refused request never takes a handler, so
		// overload costs the in-flight count only. The slot is the
		// handler's to give back.
		if err := s.enter(req); err != nil {
			c.send(s.errResponse(req, err))
			continue
		}
		depth := int(c.busy.Add(1))
		s.tel.pipelineDepth.Observe(float64(depth))
		// A handler counts itself idle before it writes its response, so a
		// stop-and-wait client finds the one it used last time; a second is
		// started only for a request that arrives while every one is busy.
		if depth > started && started < DefaultMaxPipeline {
			started++
			c.handlers.Add(1)
			go c.handle(req)
		} else {
			c.work <- req
		}
	}
}

// handle is one handler goroutine: it executes the request it was started
// for and then whatever the reader hands it, until the connection ends.
func (c *conn) handle(req *wire.Request) {
	defer c.handlers.Done()
	for ; req != nil; req = <-c.work {
		resp := c.s.handleAdmitted(req)
		c.s.svc.Leave(req.Method)
		c.busy.Add(-1)
		c.send(resp)
	}
}

// send puts one response on the wire, under the per-write deadline. After a
// write failure the connection is closed and responses are dropped.
func (c *conn) send(resp *wire.Response) {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if c.failed {
		return
	}
	c.out, _ = wire.Append(c.out, resp)
	if c.writing {
		return // the handler that is writing takes these bytes along
	}
	c.writing = true
	for len(c.out) > 0 && !c.failed {
		buf := c.out
		c.out, c.spare = c.spare[:0], nil
		c.wmu.Unlock()
		if c.s.writeTimeout > 0 {
			// Every Write sets its own, so none is left behind to clear.
			// It is on the wall clock, which the kernel compares it with.
			_ = c.nc.SetWriteDeadline(time.Now().Add(c.s.writeTimeout))
		}
		_, err := c.nc.Write(buf)
		c.wmu.Lock()
		if cap(buf) <= maxRetainedOut {
			c.spare = buf
		}
		if err != nil {
			if c.s.logger != nil {
				c.s.logger.Printf("server: write: %v", err)
			}
			c.failed, c.out = true, nil
			c.nc.Close()
		}
	}
	c.writing = false
}

// maxRetainedOut is the largest response buffer a connection keeps between
// writes.
const maxRetainedOut = 64 << 10

// Handle dispatches one request to the engine and builds the response. It
// is exported so in-process callers (tests, embedded deployments) can speak
// the protocol without a socket; it takes one of the node's in-flight slots
// as a socket request does. Requests are counted by method into the engine's
// telemetry registry, with errored requests and handling latency tracked
// alongside. A panicking handler is recovered into a typed "internal" error
// response and counted in nnexus_panics_recovered_total, so one poisoned
// request cannot kill the daemon. The engine stores the request's own
// entries: a write sets their ID and corpus (and a default external ID), as
// Engine.AddEntry does on its argument.
func (s *Server) Handle(req *wire.Request) *wire.Response {
	if err := s.enter(req); err != nil {
		return s.errResponse(req, err)
	}
	defer s.svc.Leave(req.Method)
	return s.handleAdmitted(req)
}

// enter runs the shed stage: a request it lets through holds its in-flight
// slot, one it refuses holds none and is counted.
func (s *Server) enter(req *wire.Request) error {
	if err := s.svc.Enter(req.Method); err != nil {
		s.tel.shed.Inc()
		return err
	}
	return nil
}

// handleAdmitted is Handle minus the shed stage, for the connection reader
// loop, which has already run it inline.
func (s *Server) handleAdmitted(req *wire.Request) (resp *wire.Response) {
	start := clock.Now()
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		s.tel.panics.Inc()
		if s.logger != nil {
			s.logger.Printf("server: panic handling %s: %v\n%s", req.Method, r, debug.Stack())
		}
		s.tel.request(req.Method, start, true)
		resp = wire.ErrCoded(req, wire.CodeInternal,
			fmt.Errorf("internal error handling %s", req.Method))
	}()
	r, err := s.dispatch(req)
	s.tel.request(req.Method, start, err != nil)
	if err != nil {
		return s.errResponse(req, err)
	}
	return r
}

// errResponse maps an error to its wire reply: a typed error of the request
// pipeline carries the code and leader hint service.Code names for it,
// anything else is an untyped error response.
func (s *Server) errResponse(req *wire.Request, err error) *wire.Response {
	resp := wire.Err(req, err)
	resp.Code, resp.Leader = s.svc.Code(err)
	return resp
}

// dispatch runs the route, execute and acknowledge stages of a request that
// holds its slot; executing is the service's method table, whose reply the
// socket sends as a wire response.
func (s *Server) dispatch(req *wire.Request) (resp *wire.Response, err error) {
	if s.testHook != nil {
		s.testHook(req)
	}
	err = s.svc.Execute(req.Method, func() error {
		reply, err := s.svc.Call(req)
		if err != nil {
			return err
		}
		resp = &reply.Response
		if reply.Result != nil {
			resp.Linked = toWireLinked(reply.Result)
		}
		if reply.Results != nil {
			resp.Batch = make([]*wire.Linked, len(reply.Results))
			for i, res := range reply.Results {
				resp.Batch[i] = toWireLinked(res)
			}
		}
		if s.testPostMutate != nil {
			s.testPostMutate(req)
		}
		return nil
	})
	return resp, err
}

func toWireLinked(res *core.Result) *wire.Linked {
	out := &wire.Linked{Output: res.Output}
	if len(res.Links) > 0 {
		out.Links = make([]wire.LinkInfo, len(res.Links))
	}
	for i, l := range res.Links {
		out.Links[i] = wire.LinkInfo{
			Label:    l.Label,
			Start:    l.Start,
			End:      l.End,
			Target:   l.Target,
			Domain:   l.TargetDomain,
			URL:      l.URL,
			Distance: l.Distance,
		}
	}
	if len(res.Skips) > 0 {
		out.Skips = make([]wire.SkipInfo, len(res.Skips))
	}
	for i, s := range res.Skips {
		out.Skips[i] = wire.SkipInfo{Label: s.Label, Reason: s.Reason}
	}
	return out
}
