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
//   - a connection cap and an active-request bound shed excess load with a
//     typed "overloaded" wire error instead of queueing without bound;
//   - per-request handler deadlines and per-response write deadlines keep a
//     slow engine call or a stalled reader from pinning goroutines forever;
//   - a panic in a handler is recovered into an "internal" error response
//     and a counter bump, not a dead process.
package server

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"nnexus/internal/core"
	"nnexus/internal/corpus"
	"nnexus/internal/morph"
	"nnexus/internal/replication"
	"nnexus/internal/service"
	"nnexus/internal/telemetry"
	"nnexus/internal/tenant"
	"nnexus/internal/tokenizer"
	"nnexus/internal/wire"
)

// DefaultWriteTimeout bounds writing one response to a client; a reader
// stalled longer than this loses the connection rather than pinning the
// handler goroutine.
const DefaultWriteTimeout = 30 * time.Second

// DefaultMaxPipeline is how many requests one connection may have in
// flight concurrently (see WithMaxPipeline).
const DefaultMaxPipeline = 32

// errOverloaded is the message body of a shed request.
var errOverloaded = errors.New("server overloaded, retry later")

// Server serves one engine to any number of concurrent connections.
type Server struct {
	engine *core.Engine
	logger *log.Logger
	tel    *serverTelemetry

	// svc runs every request's admit, route and acknowledge stages under
	// the node's one policy (see internal/service), shared with every other
	// door; the server itself only executes.
	svc *service.Service

	maxRequestBytes int64
	writeTimeout    time.Duration
	handlerTimeout  time.Duration
	maxConns        int
	maxActive       int
	maxPipeline     int

	active atomic.Int64 // requests currently being handled

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
	timeouts      *telemetry.Counter
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
		timeouts: reg.Counter("nnexus_tcp_request_timeouts_total",
			"XML protocol requests answered with a timeout error because the handler deadline expired."),
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
	t.duration.Observe(time.Since(start).Seconds())
}

// Option configures a Server.
type Option func(*Server)

// WithMaxRequestBytes caps the size of a single request document; a client
// exceeding it is disconnected. The default is service.MaxRequestBytes.
func WithMaxRequestBytes(n int64) Option {
	return func(s *Server) {
		if n > 0 {
			s.maxRequestBytes = n
		}
	}
}

// WithWriteTimeout bounds writing one response to a client; a peer that
// stops reading for longer loses its connection. Zero or negative disables
// the bound. The default is DefaultWriteTimeout.
func WithWriteTimeout(d time.Duration) Option {
	return func(s *Server) { s.writeTimeout = d }
}

// WithHandlerTimeout bounds one request's handling time: when it expires
// the client receives a typed "timeout" error while the handler finishes
// (and is discarded) in the background. Zero (the default) disables it.
func WithHandlerTimeout(d time.Duration) Option {
	return func(s *Server) { s.handlerTimeout = d }
}

// WithMaxConns caps concurrently open connections; excess connections are
// accepted and immediately closed. Zero (the default) is unlimited.
func WithMaxConns(n int) Option {
	return func(s *Server) { s.maxConns = n }
}

// WithMaxActiveRequests bounds requests being handled at once across all
// connections. A request arriving over the bound is answered immediately
// with a typed "overloaded" error instead of queueing, so overload degrades
// into fast rejections rather than cascading latency. Zero (the default)
// is unlimited.
func WithMaxActiveRequests(n int) Option {
	return func(s *Server) { s.maxActive = n }
}

// WithMaxPipeline bounds how many requests one connection may have in
// flight concurrently. The wire protocol correlates responses to requests
// by Seq, so a pipelining client can keep up to n requests outstanding and
// receive completions out of order; n is also the most handler goroutines
// the connection ever has. n = 1 reproduces the pre-pipelining
// one-request-at-a-time behavior exactly; stop-and-wait clients are
// unaffected either way, since they never have more than one request
// outstanding. The default is DefaultMaxPipeline.
func WithMaxPipeline(n int) Option {
	return func(s *Server) {
		if n > 0 {
			s.maxPipeline = n
		}
	}
}

// New creates a server in front of a node's service: requests execute
// against its engine under its policy. While the service's role is primary
// the server answers the repl* streaming methods from it (Shutdown and Close
// drain it, so follower connections flush a final batch and close cleanly);
// an election-managed role also answers the replVote / replLead exchanges.
// logger may be nil to disable logging.
func New(svc *service.Service, logger *log.Logger, opts ...Option) *Server {
	engine := svc.Engine()
	s := &Server{
		engine:          engine,
		logger:          logger,
		tel:             newServerTelemetry(engine.Telemetry()),
		svc:             svc,
		conns:           make(map[net.Conn]struct{}),
		maxRequestBytes: service.MaxRequestBytes,
		writeTimeout:    DefaultWriteTimeout,
		maxPipeline:     DefaultMaxPipeline,
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
// their current handler returns (or its handler deadline expires). The drain
// duration is recorded in the nnexus_drain_duration_seconds histogram.
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
	start := time.Now()
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
	s.tel.drainDuration.Observe(time.Since(start).Seconds())
	return err
}

// conn is one connection: a reader (serveConn) that decodes, admits and
// hands out requests, and up to maxPipeline handler goroutines that execute
// them and write their own responses.
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
// panics are recovered per handler, the handler deadline bounds each request
// independently, and a drain lets every dispatched request finish and flush
// before the connection closes.
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
	dec.SetLimit(s.maxRequestBytes)
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
		if s.maxActive > 0 && s.active.Load() >= int64(s.maxActive) {
			// Shed before dispatch: the request never executes, so it
			// is safe for the client to retry even mutating methods.
			s.tel.shed.Inc()
			c.send(wire.ErrCoded(req, wire.CodeOverloaded, errOverloaded))
			continue
		}
		// Admit inline, like the shed path: a rejected request never takes
		// a handler, so a tenant hammering past its limit costs admission
		// control only.
		if err := s.admit(req); err != nil {
			c.send(s.errResponse(req, err))
			continue
		}
		s.active.Add(1)
		depth := int(c.busy.Add(1))
		s.tel.pipelineDepth.Observe(float64(depth))
		// A handler counts itself idle before it writes its response, so a
		// stop-and-wait client finds the one it used last time; a second is
		// started only for a request that arrives while every one is busy.
		if depth > started && started < s.maxPipeline {
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
		resp := c.s.handleWithTimeout(req)
		c.s.active.Add(-1)
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

// handleWithTimeout runs Handle under the configured handler deadline.
// When the deadline expires the client gets a typed "timeout" error; the
// abandoned handler finishes in the background and its response is
// discarded (the engine has no cancellation points, so this is a bound on
// client-visible latency, not on server-side work).
func (s *Server) handleWithTimeout(req *wire.Request) *wire.Response {
	if s.handlerTimeout <= 0 {
		return s.handleAdmitted(req)
	}
	ch := make(chan *wire.Response, 1)
	go func() { ch <- s.handleAdmitted(req) }()
	timer := time.NewTimer(s.handlerTimeout)
	defer timer.Stop()
	select {
	case resp := <-ch:
		return resp
	case <-timer.C:
		s.tel.timeouts.Inc()
		return wire.ErrCoded(req, wire.CodeTimeout,
			fmt.Errorf("%s: handler deadline %v exceeded", req.Method, s.handlerTimeout))
	}
}

// Handle dispatches one request to the engine and builds the response. It
// is exported so in-process callers (tests, embedded deployments) can speak
// the protocol without a socket. Requests are counted by method into the
// engine's telemetry registry, with errored requests and handling latency
// tracked alongside. A panicking handler is recovered into a typed
// "internal" error response and counted in nnexus_panics_recovered_total,
// so one poisoned request cannot kill the daemon.
func (s *Server) Handle(req *wire.Request) *wire.Response {
	if err := s.admit(req); err != nil {
		return s.errResponse(req, err)
	}
	return s.handleAdmitted(req)
}

// handleAdmitted is Handle minus the admit stage, for the connection reader
// loop, which has already admitted the request inline (admitting again would
// charge the token bucket twice for one request).
func (s *Server) handleAdmitted(req *wire.Request) (resp *wire.Response) {
	start := time.Now()
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

// admit runs the admit stage for a wire request: each entry it would store
// is sized and charged to the corpus it lands in, its own else the
// request's.
func (s *Server) admit(req *wire.Request) error {
	if s.svc.Tenants == nil {
		return nil // nothing to charge: skip sizing the entries
	}
	r := service.Request{Method: req.Method, Corpus: req.Corpus}
	write := func(e *wire.Entry, id int64) service.Write {
		return service.Write{ID: id, Corpus: cmp.Or(e.Corpus, req.Corpus),
			Size: corpus.IndexedSize(e.Title, e.Body, e.Concepts, e.Classes)}
	}
	switch req.Method {
	case wire.MethodAddEntry:
		if req.Entry != nil {
			r.Writes = []service.Write{write(req.Entry, 0)}
		}
	case wire.MethodAddEntries:
		r.Writes = make([]service.Write, len(req.Entries))
		for i, e := range req.Entries {
			r.Writes[i] = write(e, 0)
		}
	case wire.MethodUpdateEntry, wire.MethodPutEntry:
		if req.Entry != nil {
			r.Writes = []service.Write{write(req.Entry, req.Entry.ID)}
		}
	}
	return s.svc.Admit(r)
}

// errResponse maps an error to its wire reply: each typed error of the
// request pipeline becomes its wire.Code* (with the leader hint where one
// helps the client), anything else an untyped error response.
func (s *Server) errResponse(req *wire.Request, err error) *wire.Response {
	var notPrimary *replication.NotPrimaryError
	switch {
	case tenant.IsRateLimited(err):
		return wire.ErrCoded(req, wire.CodeRateLimited, err)
	case tenant.IsQuotaExceeded(err):
		return wire.ErrCoded(req, wire.CodeQuotaExceeded, err)
	case errors.As(err, &notPrimary):
		resp := wire.ErrCoded(req, wire.CodeNotPrimary, err)
		resp.Leader = notPrimary.Leader
		return resp
	case errors.Is(err, replication.ErrQuorumUnavailable):
		return wire.ErrCoded(req, wire.CodeQuorumUnavailable, err)
	case errors.Is(err, replication.ErrStaleEpoch):
		resp := wire.ErrCoded(req, wire.CodeStaleEpoch, err)
		resp.Leader = s.svc.Node.Status().Leader
		return resp
	}
	return wire.Err(req, err)
}

// dispatch runs the route, execute and acknowledge stages of an admitted
// request; executing is the method table below.
func (s *Server) dispatch(req *wire.Request) (resp *wire.Response, err error) {
	if s.testHook != nil {
		s.testHook(req)
	}
	err = s.svc.Execute(req.Method, func() error {
		var err error
		resp, err = s.dispatchMethod(req)
		if err == nil && s.testPostMutate != nil {
			s.testPostMutate(req)
		}
		return err
	})
	return resp, err
}

func (s *Server) dispatchMethod(req *wire.Request) (*wire.Response, error) {
	switch req.Method {
	case wire.MethodPing:
		return wire.OK(req), nil

	case wire.MethodReplSubscribe:
		primary := s.svc.Node.CurrentPrimary()
		if primary == nil {
			return nil, errors.New("replSubscribe: node is not a replication primary")
		}
		wait := time.Duration(req.WaitMillis) * time.Millisecond
		if s.handlerTimeout > 0 {
			// Keep the long-poll comfortably under the handler deadline so
			// a caught-up subscriber gets an empty batch, not a timeout
			// error.
			if bound := s.handlerTimeout * 3 / 4; wait > bound {
				wait = bound
			}
		}
		payload, err := primary.Subscribe(req.Offset, req.Epoch, req.MaxRecords, wait)
		if err != nil {
			return nil, err
		}
		resp := wire.OK(req)
		resp.Repl = payload
		return resp, nil

	case wire.MethodReplSnapshot:
		primary := s.svc.Node.CurrentPrimary()
		if primary == nil {
			return nil, errors.New("replSnapshot: node is not a replication primary")
		}
		payload, err := primary.Snapshot()
		if err != nil {
			return nil, err
		}
		resp := wire.OK(req)
		resp.Repl = payload
		return resp, nil

	case wire.MethodReplAck:
		primary := s.svc.Node.CurrentPrimary()
		if primary == nil {
			return nil, errors.New("replAck: node is not a replication primary")
		}
		primary.Ack(req.Follower, req.Offset)
		return wire.OK(req), nil

	case wire.MethodReplStatus:
		// The node's position, under its election epoch.
		st := s.svc.Node.Status()
		resp := wire.OK(req)
		resp.Repl = &wire.ReplPayload{Role: st.Role, Epoch: st.Term, Head: st.Head,
			Applied: st.Applied, Stale: !st.Synced}
		resp.Leader = st.Leader
		return resp, nil

	case wire.MethodReplVote:
		node, err := s.svc.Node.Elector()
		if err != nil {
			return nil, err
		}
		resp := wire.OK(req)
		resp.Repl = node.HandleVote(req.Epoch, req.Offset, req.Candidate)
		resp.Leader = node.Status().Leader
		return resp, nil

	case wire.MethodReplLead:
		node, err := s.svc.Node.Elector()
		if err == nil {
			err = node.HandleLead(req.Epoch, req.Leader)
		}
		if err != nil {
			return nil, err
		}
		return wire.OK(req), nil

	case wire.MethodAddDomain:
		if req.Domain == nil {
			return nil, errors.New("addDomain: missing domain")
		}
		if err := s.engine.AddDomain(req.Domain.ToCorpusDomain()); err != nil {
			return nil, err
		}
		return wire.OK(req), nil

	case wire.MethodAddEntry:
		if req.Entry == nil {
			return nil, errors.New("addEntry: missing entry")
		}
		entry := req.Entry.ToCorpus()
		if entry.Corpus == "" {
			entry.Corpus = req.Corpus
		}
		id, err := s.engine.AddEntry(entry)
		if err != nil {
			return nil, err
		}
		resp := wire.OK(req)
		resp.Object = id
		return resp, nil

	case wire.MethodUpdateEntry:
		if req.Entry == nil {
			return nil, errors.New("updateEntry: missing entry")
		}
		entry := req.Entry.ToCorpus()
		if entry.Corpus == "" {
			entry.Corpus = req.Corpus
		}
		if err := s.engine.UpdateEntry(entry); err != nil {
			return nil, err
		}
		return wire.OK(req), nil

	case wire.MethodRemoveEntry:
		if err := s.engine.RemoveEntry(req.Object); err != nil {
			return nil, err
		}
		return wire.OK(req), nil

	case wire.MethodGetEntry:
		entry, ok := s.engine.Entry(req.Object)
		if !ok {
			return nil, fmt.Errorf("getEntry: unknown entry %d", req.Object)
		}
		resp := wire.OK(req)
		resp.Entry = wire.FromCorpus(entry)
		return resp, nil

	case wire.MethodSetPolicy:
		if err := s.engine.SetPolicy(req.Object, req.Policy); err != nil {
			return nil, err
		}
		return wire.OK(req), nil

	case wire.MethodLinkEntry:
		opts, err := linkOptions(req)
		if err != nil {
			return nil, err
		}
		res, err := s.engine.LinkEntry(req.Object, opts)
		if err != nil {
			return nil, err
		}
		resp := wire.OK(req)
		resp.Linked = toWireLinked(res)
		return resp, nil

	case wire.MethodLinkText:
		opts, err := s.textLinkOptions(req)
		if err != nil {
			return nil, err
		}
		res, err := s.engine.LinkText(req.Text, opts)
		if err != nil {
			return nil, err
		}
		resp := wire.OK(req)
		resp.Linked = toWireLinked(res)
		return resp, nil

	case wire.MethodInvalidated:
		resp := wire.OK(req)
		resp.Invalidated = s.engine.Invalidated()
		return resp, nil

	case wire.MethodRelink:
		results, err := s.engine.RelinkInvalidated()
		if err != nil {
			return nil, err
		}
		resp := wire.OK(req)
		resp.Object = int64(len(results))
		return resp, nil

	case wire.MethodStats:
		hits, misses := s.engine.CacheStats()
		met := s.engine.Metrics()
		resp := wire.OK(req)
		resp.Stats = &wire.Stats{
			Entries:      s.engine.NumEntries(),
			Concepts:     s.engine.NumConcepts(),
			Domains:      len(s.engine.Domains()),
			Invalidated:  len(s.engine.Invalidated()),
			CacheHits:    hits,
			CacheMisses:  misses,
			LinksCreated: met.LinksCreated,
			TextsLinked:  met.TextsLinked,
			MaxObject:    s.engine.MaxObjectID(),
		}
		return resp, nil

	case wire.MethodAddEntries:
		if len(req.Entries) == 0 {
			return nil, errors.New("addEntries: missing entries")
		}
		entries := make([]*corpus.Entry, len(req.Entries))
		for i, e := range req.Entries {
			entries[i] = e.ToCorpus()
			if entries[i].Corpus == "" {
				entries[i].Corpus = req.Corpus
			}
		}
		ids, err := s.engine.AddEntries(entries)
		if err != nil {
			return nil, err
		}
		resp := wire.OK(req)
		resp.Objects = ids
		return resp, nil

	case wire.MethodLinkBatch:
		if len(req.Texts) == 0 {
			return nil, errors.New("linkBatch: missing texts")
		}
		opts, err := s.textLinkOptions(req)
		if err != nil {
			return nil, err
		}
		results, err := s.engine.LinkBatch(req.Texts, opts, 0)
		if err != nil {
			return nil, err
		}
		resp := wire.OK(req)
		resp.Batch = make([]*wire.Linked, len(results))
		for i, res := range results {
			resp.Batch[i] = toWireLinked(res)
		}
		return resp, nil

	case wire.MethodRelinkBatch:
		results, err := s.engine.RelinkBatch(req.Objects, 0)
		if err != nil {
			return nil, err
		}
		resp := wire.OK(req)
		resp.Object = int64(len(results))
		resp.Objects = make([]int64, 0, len(results))
		for id := range results {
			resp.Objects = append(resp.Objects, id)
		}
		sort.Slice(resp.Objects, func(i, j int) bool { return resp.Objects[i] < resp.Objects[j] })
		return resp, nil

	case wire.MethodShardScan:
		opts, err := linkOptions(req)
		if err != nil {
			return nil, err
		}
		opts.SourceClasses, opts.SourceScheme = req.Classes, req.Scheme
		opts.ExcludeObject = req.Object
		// The words arrive normalized; a word the vocabulary lacks is in
		// no label, and reading it adds nothing.
		vocab := morph.Current()
		tokens := make([]tokenizer.Token, len(req.Tokens))
		for i, t := range req.Tokens {
			tokens[i] = tokenizer.Token{Start: t.Start, End: t.End, Word: vocab.WordID(t.Norm)}
		}
		matches, err := s.engine.ScanShard(nil, tokens, opts)
		if err != nil {
			return nil, err
		}
		resp := wire.OK(req)
		if len(matches) > 0 {
			resp.Matches = make([]wire.ShardMatch, len(matches))
		}
		for i, m := range matches {
			resp.Matches[i] = wire.ShardMatch{
				Label:      m.Label,
				TokenStart: m.TokenStart,
				TokenEnd:   m.TokenEnd,
				ByteStart:  m.ByteStart,
				ByteEnd:    m.ByteEnd,
				Skip:       m.Skip,
				Target:     m.Link.Target,
				Domain:     m.Link.TargetDomain,
				Title:      m.Link.TargetTitle,
				URL:        m.Link.URL,
				Distance:   m.Link.Distance,
				Candidates: m.Link.Candidates,
			}
		}
		return resp, nil

	case wire.MethodPutEntry:
		if req.Entry == nil {
			return nil, errors.New("putEntry: missing entry")
		}
		entry := req.Entry.ToCorpus()
		if entry.Corpus == "" {
			entry.Corpus = req.Corpus
		}
		if err := s.engine.PutEntry(entry); err != nil {
			return nil, err
		}
		return wire.OK(req), nil

	default:
		return nil, fmt.Errorf("unknown method %q", req.Method)
	}
}

// linkOptions reads a link method's pipeline, format and corpus policy off
// the request.
func linkOptions(req *wire.Request) (core.LinkOptions, error) {
	opts, err := service.ParseLinkOptions(req.Mode, req.Format)
	opts.SourceCorpus, opts.TargetCorpora = req.Corpus, req.Targets
	return opts, err
}

// textLinkOptions is linkOptions for the free-text methods: they steer by
// the request's classes and, naming no targets, link against the ones the
// source corpus's tenant policy configures.
func (s *Server) textLinkOptions(req *wire.Request) (core.LinkOptions, error) {
	opts, err := linkOptions(req)
	opts.SourceClasses, opts.SourceScheme = req.Classes, req.Scheme
	s.svc.DefaultTargets(&opts)
	return opts, err
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
