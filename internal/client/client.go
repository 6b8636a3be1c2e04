// Package client is the Go client for an NNexus server: it speaks the XML
// socket protocol of the wire package, offering typed methods mirroring the
// engine API. The connection is pipelined: each caller encodes and writes its
// own request, under the connection's write lock, while a reader goroutine
// demultiplexes responses by their Seq, so up to WithPipelineWindow(n) calls
// from concurrent goroutines share one connection without waiting for each
// other's round trips. One instance may be shared freely.
//
// The client is self-healing: a dropped, desynced, or timed-out connection
// is torn down and transparently re-established on the next call
// (exponential backoff with jitter between attempts), every method but the
// writes (wire.KindWrite) is retried across connection failures, and
// "overloaded" and "rateLimited" rejections — which the server issues before
// executing anything — are retried for every method. When a connection
// fails, every call already on the wire is completed with the failure (fate
// unknown), while calls still waiting for the window or the write lock fail
// as "not sent" and stay retryable for any method.
// Per-call deadlines bound each exchange so a hung server cannot block a
// caller forever.
package client

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"nnexus/internal/corpus"
	"nnexus/internal/wire"
)

// Defaults for the resilience knobs; override with the Options.
const (
	// DefaultCallTimeout bounds one request/response exchange.
	DefaultCallTimeout = 30 * time.Second
	// DefaultMaxRetries is how many times a retryable call is retried
	// after its first failure.
	DefaultMaxRetries = 3
	// DefaultBackoffBase is the first retry's backoff ceiling.
	DefaultBackoffBase = 25 * time.Millisecond
	// DefaultBackoffMax caps the exponential backoff.
	DefaultBackoffMax = 2 * time.Second
	// DefaultPipelineWindow is how many calls may be in flight on the
	// connection at once (see WithPipelineWindow).
	DefaultPipelineWindow = 16
)

// ErrClosed is returned by calls on a Close()d client, including calls that
// were in flight when Close was invoked.
var ErrClosed = errors.New("client: closed")

// ServerError is an error response from the server. Code carries the wire
// error code when the server sent one (see wire.Code*); Leader carries the
// primary's address on notPrimary rejections from a read replica.
type ServerError struct {
	Code    string
	Message string
	Leader  string
}

func (e *ServerError) Error() string {
	return "client: server error: " + e.Message
}

// IsOverloaded reports whether err is a server-side load-shed rejection —
// the request was never executed and may be retried.
func IsOverloaded(err error) bool {
	var se *ServerError
	return errors.As(err, &se) && se.Code == wire.CodeOverloaded
}

// IsRateLimited reports whether err is a tenant rate-limit rejection: the
// request's corpus exhausted its token bucket and the request was rejected
// before execution. Like load shedding it is safe to retry after backoff,
// and the client does so automatically.
func IsRateLimited(err error) bool {
	var se *ServerError
	return errors.As(err, &se) && se.Code == wire.CodeRateLimited
}

// IsQuotaExceeded reports whether err is a tenant quota rejection: the
// write would push its corpus past an entry-count or byte quota. It was
// rejected before execution, but retrying unchanged will fail again, so the
// client does NOT retry it.
func IsQuotaExceeded(err error) bool {
	var se *ServerError
	return errors.As(err, &se) && se.Code == wire.CodeQuotaExceeded
}

// rejectedBeforeExecution reports whether the server rejected the request
// without executing it — the class of typed errors that is retry-safe even
// for mutating methods.
func rejectedBeforeExecution(se *ServerError) bool {
	switch se.Code {
	case wire.CodeOverloaded, wire.CodeRateLimited:
		return true
	}
	return false
}

// Client is a connection to an NNexus server.
type Client struct {
	addr        string
	dialTimeout time.Duration
	callTimeout time.Duration
	maxRetries  int
	backoffBase time.Duration
	backoffMax  time.Duration
	window      int

	retries    atomic.Int64 // calls re-attempted after a failure
	reconnects atomic.Int64 // connections re-established after the first
	seq        atomic.Int64 // request sequence, monotonic across reconnects

	// Routing (replicas.go): the read replicas beside the configured node,
	// the probe loop that keeps their state (running only when there are
	// replicas), and the leader hint — the sub-client writes try first, nil
	// while the configured node is the leader as far as the client knows.
	replicas   []*replica
	staleness  uint64
	probeEvery time.Duration
	rr         atomic.Uint64
	stopProbe  chan struct{}
	probed     chan struct{}
	leader     atomic.Pointer[Client]

	mu     sync.Mutex
	cc     *clientConn
	closed bool
	peers  map[string]*Client // sub-clients by address, closed with this one
}

// Option configures a Client.
type Option func(*Client)

// WithCallTimeout bounds each request/response exchange; zero or negative
// disables the deadline. The default is DefaultCallTimeout.
func WithCallTimeout(d time.Duration) Option {
	return func(c *Client) { c.callTimeout = d }
}

// WithMaxRetries sets how many times a retryable call is re-attempted
// after its first failure (0 disables retries). The default is
// DefaultMaxRetries.
func WithMaxRetries(n int) Option {
	return func(c *Client) {
		if n >= 0 {
			c.maxRetries = n
		}
	}
}

// WithBackoff sets the retry backoff's base and cap. Attempt n sleeps a
// uniformly jittered duration in (0, min(base·2ⁿ, max)].
func WithBackoff(base, max time.Duration) Option {
	return func(c *Client) {
		if base > 0 {
			c.backoffBase = base
		}
		if max > 0 {
			c.backoffMax = max
		}
	}
}

// WithPipelineWindow bounds how many calls may be outstanding on the
// connection at once. Calls beyond the window queue until a slot frees.
// n = 1 disables pipelining: each call completes its round trip before the
// next is written, reproducing the stop-and-wait exchange pattern on the
// wire. The default is DefaultPipelineWindow.
func WithPipelineWindow(n int) Option {
	return func(c *Client) {
		if n > 0 {
			c.window = n
		}
	}
}

// New returns a client configured like Dial's but not yet connected: the
// first call dials on demand, and failed connections redial on the next
// call. It never fails, so a client for a node that is currently down can
// be constructed up front — follower sync loops use this to ride out
// primary restarts.
func New(addr string, timeout time.Duration, opts ...Option) *Client {
	c := &Client{
		addr:        addr,
		dialTimeout: timeout,
		callTimeout: DefaultCallTimeout,
		maxRetries:  DefaultMaxRetries,
		backoffBase: DefaultBackoffBase,
		backoffMax:  DefaultBackoffMax,
		window:      DefaultPipelineWindow,
		staleness:   DefaultStalenessBound,
		probeEvery:  DefaultReplicaProbeInterval,
	}
	for _, o := range opts {
		o(c)
	}
	for _, r := range c.replicas {
		r.c = c.peer(r.addr)
	}
	if len(c.replicas) > 0 {
		c.stopProbe, c.probed = make(chan struct{}), make(chan struct{})
		go c.probeLoop()
	}
	return c
}

// Dial connects to an NNexus server at addr with the given timeout.
func Dial(addr string, timeout time.Duration, opts ...Option) (*Client, error) {
	c := New(addr, timeout, opts...)
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		c.Close()
		return nil, fmt.Errorf("client: dial %s: %w", addr, err)
	}
	c.mu.Lock()
	c.cc = newClientConn(c, conn)
	c.mu.Unlock()
	return c, nil
}

// Retries returns how many call re-attempts this client has made.
func (c *Client) Retries() int64 { return c.retries.Load() }

// Reconnects returns how many times the client re-established its
// connection after the initial dial.
func (c *Client) Reconnects() int64 { return c.reconnects.Load() }

// Close closes the connection. Calls in flight — including ones blocked on
// a slow server — unblock promptly and fail with ErrClosed; subsequent
// calls fail with ErrClosed too. The client does not reconnect.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	cc := c.cc
	c.cc = nil
	c.mu.Unlock()
	// Sub-clients close first, so a probe blocked on a hung replica returns
	// at once; peer hands out no new ones once closed is set.
	for _, p := range c.peers {
		p.Close()
	}
	if c.stopProbe != nil {
		close(c.stopProbe)
		<-c.probed
	}
	if cc != nil {
		cc.fail(ErrClosed, failPermanent)
	}
	return nil
}

// failClass classifies a call failure by what it implies about the
// request's fate, which is what decides retryability.
type failClass int

const (
	failNone      failClass = iota
	failNotSent             // the request never reached the wire
	failUnknown             // the connection broke mid-exchange: fate unknown
	failRejected            // typed pre-execution rejection (overloaded / rateLimited)
	failPermanent           // application error, protocol violation, or closed client
)

// pcall is one in-flight pipelined call: its request is on the wire, or on
// its way there. done is closed exactly once, after resp/err/class are set.
type pcall struct {
	resp  *wire.Response
	err   error
	class failClass
	done  chan struct{}
}

// clientConn is one live connection: callers writing their requests one at
// a time and a reader goroutine demultiplexing responses onto the pending
// calls by Seq. A connection fails as a unit — the first write, read, or
// deadline error marks it broken, completes every pending call with the
// failure (callers that had not yet started to write fail as retryable "not
// sent"), and detaches it from the Client so the next call dials fresh.
type clientConn struct {
	c      *Client
	conn   net.Conn
	slots  chan struct{} // pipeline window semaphore
	failed chan struct{} // closed when the connection breaks

	// wmu is the write lock: it orders Seq assignment, registration and the
	// write, so requests reach the wire in Seq order and a call is pending
	// exactly when its bytes may have left.
	wmu sync.Mutex
	enc *wire.Encoder

	mu      sync.Mutex
	pending map[int64]*pcall
	broken  bool
	err     error
}

func newClientConn(c *Client, conn net.Conn) *clientConn {
	window := c.window
	if window <= 0 {
		window = 1
	}
	cc := &clientConn{
		c:       c,
		conn:    conn,
		enc:     wire.NewEncoder(conn),
		slots:   make(chan struct{}, window),
		failed:  make(chan struct{}),
		pending: make(map[int64]*pcall),
	}
	go cc.readLoop()
	return cc
}

// acquire takes a window slot, blocking while the connection is saturated.
func (cc *clientConn) acquire() error {
	select {
	case cc.slots <- struct{}{}:
		return nil
	case <-cc.failed:
		return cc.failure()
	}
}

// submit writes one request from the caller's goroutine, which holds a
// window slot, blocking for the write lock behind the calls ahead of it. The
// returned call completes when its response arrives or the connection fails;
// an error means the request was not sent.
func (cc *clientConn) submit(req *wire.Request) (*pcall, error) {
	cc.wmu.Lock()
	defer cc.wmu.Unlock()
	cc.mu.Lock()
	if cc.broken {
		err := cc.err
		cc.mu.Unlock()
		<-cc.slots
		return nil, err
	}
	req.Seq = cc.c.seq.Add(1)
	pc := &pcall{done: make(chan struct{})}
	cc.pending[req.Seq] = pc
	cc.mu.Unlock()
	if err := cc.enc.Encode(req); err != nil {
		cc.fail(fmt.Errorf("client: write request: %w", err), failUnknown)
	}
	return pc, nil
}

func (cc *clientConn) failure() error {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	return cc.err
}

// readLoop demultiplexes responses to their pending calls by Seq. Typed and
// application error responses complete the one call they answer — the
// connection stays healthy. A read failure or an unmatched Seq (the stream
// is desynced: any pairing after it would be suspect) fails the whole
// connection.
func (cc *clientConn) readLoop() {
	dec := wire.NewDecoder(cc.conn)
	for {
		r := new(wire.Response)
		if err := dec.Decode(r); err != nil {
			cc.fail(fmt.Errorf("client: read response: %w", err), failUnknown)
			return
		}
		cc.mu.Lock()
		pc, ok := cc.pending[r.Seq]
		if ok {
			delete(cc.pending, r.Seq)
		}
		cc.mu.Unlock()
		if !ok {
			cc.fail(fmt.Errorf("client: response seq %d matches no outstanding request (connection desynced)", r.Seq), failPermanent)
			return
		}
		if !r.IsOK() {
			serr := &ServerError{Code: r.Code, Message: r.Error, Leader: r.Leader}
			if rejectedBeforeExecution(serr) {
				pc.err, pc.class = serr, failRejected
			} else {
				// quotaExceeded is also rejected-before-execution, but an
				// unchanged retry cannot succeed — surface it immediately.
				pc.err, pc.class = serr, failPermanent
			}
		} else {
			pc.resp = r
		}
		close(pc.done)
		<-cc.slots
	}
}

// fail breaks the connection once: it completes every pending call with the
// given error and class, closes the socket — unblocking the reader and any
// caller stuck in a write — and detaches the connection so the next call
// dials fresh.
func (cc *clientConn) fail(err error, class failClass) {
	cc.mu.Lock()
	if cc.broken {
		cc.mu.Unlock()
		return
	}
	cc.broken = true
	cc.err = err
	pending := cc.pending
	cc.pending = nil
	cc.mu.Unlock()

	close(cc.failed)
	cc.conn.Close()
	for _, pc := range pending {
		pc.err, pc.class = err, class
		close(pc.done)
		<-cc.slots
	}
	cc.c.mu.Lock()
	if cc.c.cc == cc {
		cc.c.cc = nil
	}
	cc.c.mu.Unlock()
}

// send performs one request/response exchange against this client's own
// server, transparently reconnecting and retrying per the client's policy. It
// surfaces the final attempt's failure class, so routing can tell a request
// that provably never reached the wire (safe to re-issue at a new primary)
// from one whose fate is unknown.
func (c *Client) send(req *wire.Request) (*wire.Response, failClass, error) {
	for attempt := 0; ; attempt++ {
		resp, class, err := c.doCall(req)
		if err == nil {
			return resp, failNone, nil
		}
		if attempt >= c.maxRetries {
			return nil, class, err
		}
		switch class {
		case failNotSent, failRejected:
			// Definitely not executed: any method may retry.
		case failUnknown:
			// Fate unknown: a write may have executed, so only the other
			// kinds retry.
			if wire.Mutating(req.Method) {
				return nil, class, err
			}
		default:
			return nil, class, err
		}
		c.retries.Add(1)
		// The retry reuses req: it was encoded on this goroutine, inside
		// doCall, so nothing reads it once doCall has returned.
		time.Sleep(c.backoff(attempt))
	}
}

// backoff returns the jittered sleep before retry n (0-based):
// uniform in (0, min(base·2ⁿ, max)].
func (c *Client) backoff(attempt int) time.Duration {
	d := c.backoffBase << uint(attempt)
	if d <= 0 || d > c.backoffMax {
		d = c.backoffMax
	}
	return time.Duration(rand.Int63n(int64(d))) + 1
}

// doCall performs a single exchange attempt, classifying any failure by
// what it implies about the request's fate. A per-call deadline overrun
// fails the whole connection: on a pipelined stream one wedged exchange
// means every later response is also stalled behind it.
func (c *Client) doCall(req *wire.Request) (*wire.Response, failClass, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, failPermanent, ErrClosed
	}
	cc := c.cc
	if cc == nil {
		conn, err := net.DialTimeout("tcp", c.addr, c.dialTimeout)
		if err != nil {
			c.mu.Unlock()
			return nil, failNotSent, fmt.Errorf("client: reconnect %s: %w", c.addr, err)
		}
		cc = newClientConn(c, conn)
		c.cc = cc
		c.reconnects.Add(1)
	}
	c.mu.Unlock()

	if err := cc.acquire(); err != nil {
		return nil, failNotSent, err
	}
	if c.callTimeout > 0 {
		// Armed before the write, which a server that stopped reading can
		// block as long as a missing response.
		method := req.Method
		timer := time.AfterFunc(c.callTimeout, func() {
			cc.fail(fmt.Errorf("client: %s: call timeout %v exceeded", method, c.callTimeout), failUnknown)
		})
		defer timer.Stop()
	}
	pc, err := cc.submit(req)
	if err != nil {
		return nil, failNotSent, err
	}
	<-pc.done
	return pc.resp, pc.class, pc.err
}

// Ping checks server liveness.
func (c *Client) Ping() error {
	_, err := c.call(&wire.Request{Method: wire.MethodPing})
	return err
}

// AddDomain registers a corpus domain.
func (c *Client) AddDomain(d corpus.Domain) error {
	_, err := c.call(&wire.Request{Method: wire.MethodAddDomain, Domain: &d})
	return err
}

// AddEntry submits a new entry and returns its assigned ID, which it also
// sets on e. The write methods send the caller's own entry or domain: it is
// encoded on the caller's goroutine before the call returns, and the client
// keeps no reference to it.
func (c *Client) AddEntry(e *corpus.Entry) (int64, error) {
	resp, err := c.call(&wire.Request{Method: wire.MethodAddEntry, Entry: e})
	if err != nil {
		return 0, err
	}
	e.ID = resp.Object
	return resp.Object, nil
}

// AddEntries submits many entries as one atomic batch (one request, one
// storage commit server-side). On success every entry's ID field is set and
// the assigned IDs are returned in order; a bad entry rejects the whole
// batch. Like addEntry, the batch is not retried when its connection breaks
// mid-exchange.
func (c *Client) AddEntries(entries []*corpus.Entry) ([]int64, error) {
	if len(entries) == 0 {
		return nil, nil
	}
	resp, err := c.call(&wire.Request{Method: wire.MethodAddEntries, Entries: entries})
	if err != nil {
		return nil, err
	}
	if len(resp.Objects) != len(entries) {
		return nil, fmt.Errorf("client: addEntries returned %d ids for %d entries", len(resp.Objects), len(entries))
	}
	for i, e := range entries {
		e.ID = resp.Objects[i]
	}
	return resp.Objects, nil
}

// UpdateEntry replaces an existing entry.
func (c *Client) UpdateEntry(e *corpus.Entry) error {
	_, err := c.call(&wire.Request{Method: wire.MethodUpdateEntry, Entry: e})
	return err
}

// RemoveEntry deletes an entry.
func (c *Client) RemoveEntry(id int64) error {
	_, err := c.call(&wire.Request{Method: wire.MethodRemoveEntry, Object: id})
	return err
}

// GetEntry fetches an entry's metadata.
func (c *Client) GetEntry(id int64) (*corpus.Entry, error) {
	resp, err := c.call(&wire.Request{Method: wire.MethodGetEntry, Object: id})
	if err != nil {
		return nil, err
	}
	if resp.Entry == nil {
		return nil, errors.New("client: response missing entry")
	}
	return resp.Entry, nil
}

// SetPolicy installs a linking policy on an entry.
func (c *Client) SetPolicy(id int64, policyText string) error {
	_, err := c.call(&wire.Request{Method: wire.MethodSetPolicy, Object: id, Policy: policyText})
	return err
}

// LinkEntry links a stored entry and returns the linked document.
func (c *Client) LinkEntry(id int64, mode, format string) (*wire.Linked, error) {
	resp, err := c.call(&wire.Request{
		Method: wire.MethodLinkEntry, Object: id, Mode: mode, Format: format,
	})
	if err != nil {
		return nil, err
	}
	return linked(resp)
}

// LinkText links arbitrary text against the collection. classes/scheme
// describe the source document's classification.
func (c *Client) LinkText(text string, classes []string, scheme, mode, format string) (*wire.Linked, error) {
	resp, err := c.call(&wire.Request{
		Method:  wire.MethodLinkText,
		Text:    text,
		Classes: classes,
		Scheme:  scheme,
		Mode:    mode,
		Format:  format,
	})
	if err != nil {
		return nil, err
	}
	return linked(resp)
}

// LinkTextIn is LinkText with an explicit tenant link policy: the text
// links on behalf of corpusName (rate limiting and telemetry attribute to
// it) against the ordered target corpora — earlier targets win equal-span
// ties; empty targets means self-linking within corpusName. An empty
// corpusName selects the server's default corpus, making this a strict
// superset of LinkText.
func (c *Client) LinkTextIn(corpusName string, targets []string, text string, classes []string, scheme, mode, format string) (*wire.Linked, error) {
	resp, err := c.call(&wire.Request{
		Method:  wire.MethodLinkText,
		Corpus:  corpusName,
		Targets: targets,
		Text:    text,
		Classes: classes,
		Scheme:  scheme,
		Mode:    mode,
		Format:  format,
	})
	if err != nil {
		return nil, err
	}
	return linked(resp)
}

// LinkBatch links many texts in one request against one server-side
// snapshot; results are positional. classes/scheme apply to every text.
// Linking is read-only, so the batch is retried like linkText.
func (c *Client) LinkBatch(texts []string, classes []string, scheme, mode, format string) ([]*wire.Linked, error) {
	if len(texts) == 0 {
		return nil, nil
	}
	resp, err := c.call(&wire.Request{
		Method:  wire.MethodLinkBatch,
		Texts:   texts,
		Classes: classes,
		Scheme:  scheme,
		Mode:    mode,
		Format:  format,
	})
	if err != nil {
		return nil, err
	}
	if len(resp.Batch) != len(texts) {
		return nil, fmt.Errorf("client: linkBatch returned %d results for %d texts", len(resp.Batch), len(texts))
	}
	for _, l := range resp.Batch {
		if l == nil {
			return nil, errors.New("client: response missing linked document")
		}
	}
	return resp.Batch, nil
}

// Invalidated returns the IDs of entries awaiting re-linking.
func (c *Client) Invalidated() ([]int64, error) {
	resp, err := c.call(&wire.Request{Method: wire.MethodInvalidated})
	if err != nil {
		return nil, err
	}
	return resp.Invalidated, nil
}

// Relink re-links all invalidated entries server-side and returns how many
// were processed.
func (c *Client) Relink() (int, error) {
	resp, err := c.call(&wire.Request{Method: wire.MethodRelink})
	if err != nil {
		return 0, err
	}
	return int(resp.Object), nil
}

// RelinkBatch re-links the given entries server-side through the
// shared-view batch path (ids == nil relinks everything invalidated) and
// returns the IDs that were re-linked. Relinking mutates the invalidation
// queue, so like relink it is not retried on a mid-exchange break.
func (c *Client) RelinkBatch(ids []int64) ([]int64, error) {
	resp, err := c.call(&wire.Request{Method: wire.MethodRelinkBatch, Objects: ids})
	if err != nil {
		return nil, err
	}
	return resp.Objects, nil
}

// Stats fetches collection statistics.
func (c *Client) Stats() (*wire.Stats, error) {
	resp, err := c.call(&wire.Request{Method: wire.MethodStats})
	if err != nil {
		return nil, err
	}
	if resp.Stats == nil {
		return nil, errors.New("client: response missing stats")
	}
	return resp.Stats, nil
}

// ReplSubscribe asks the server for WAL records starting at offset from
// under the given primary epoch, long-polling up to waitMillis when caught
// up. follower identifies this subscriber for lag accounting. The client
// makes a suitable replication.Source for a Follower.
func (c *Client) ReplSubscribe(from, epoch uint64, max, waitMillis int, follower string) (*wire.ReplPayload, error) {
	resp, err := c.call(&wire.Request{
		Method:     wire.MethodReplSubscribe,
		Offset:     from,
		Epoch:      epoch,
		MaxRecords: max,
		WaitMillis: waitMillis,
		Follower:   follower,
	})
	if err != nil {
		return nil, err
	}
	if resp.Repl == nil {
		return nil, errors.New("client: response missing replication payload")
	}
	return resp.Repl, nil
}

// ReplSnapshot fetches a full state export for follower bootstrap.
func (c *Client) ReplSnapshot() (*wire.ReplPayload, error) {
	resp, err := c.call(&wire.Request{Method: wire.MethodReplSnapshot})
	if err != nil {
		return nil, err
	}
	if resp.Repl == nil {
		return nil, errors.New("client: response missing replication payload")
	}
	return resp.Repl, nil
}

// ReplAck reports the follower's applied offset to the primary.
func (c *Client) ReplAck(follower string, offset, epoch uint64) error {
	_, err := c.call(&wire.Request{
		Method:   wire.MethodReplAck,
		Follower: follower,
		Offset:   offset,
		Epoch:    epoch,
	})
	return err
}

// ReplVote asks the server's election node for its vote: the caller proposes
// itself (candidate, its advertised address) for the given election epoch at
// the given applied WAL offset. The returned payload's Granted reports the
// verdict; on rejection its Epoch/Applied carry the voter's own position.
func (c *Client) ReplVote(epoch, offset uint64, candidate string) (*wire.ReplPayload, error) {
	resp, err := c.call(&wire.Request{
		Method:    wire.MethodReplVote,
		Epoch:     epoch,
		Offset:    offset,
		Candidate: candidate,
	})
	if err != nil {
		return nil, err
	}
	if resp.Repl == nil {
		return nil, errors.New("client: response missing replication payload")
	}
	return resp.Repl, nil
}

// ReplLead announces a won election to the server: leader (its advertised
// address) now serves epoch. A server holding a higher epoch rejects the
// claim with the staleEpoch code.
func (c *Client) ReplLead(epoch uint64, leader string) error {
	_, err := c.call(&wire.Request{
		Method: wire.MethodReplLead,
		Epoch:  epoch,
		Leader: leader,
	})
	return err
}

// ReplStatus fetches the server's replication role and position. The
// second return is the primary's address when the server is a follower
// that knows its leader.
func (c *Client) ReplStatus() (*wire.ReplPayload, string, error) {
	resp, err := c.call(&wire.Request{Method: wire.MethodReplStatus})
	if err != nil {
		return nil, "", err
	}
	if resp.Repl == nil {
		return nil, "", errors.New("client: response missing replication payload")
	}
	return resp.Repl, resp.Leader, nil
}

// linked is a link method's result: the response's linked document.
func linked(resp *wire.Response) (*wire.Linked, error) {
	if resp.Linked == nil {
		return nil, errors.New("client: response missing linked document")
	}
	return resp.Linked, nil
}
