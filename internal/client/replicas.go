// Routing: every typed call takes one path, chosen by its method's kind in
// wire.Methods. The client routes over its member set — the configured node
// plus the read replicas WithReplicas lists, each probed in the background
// for its replStatus — and one leader hint, the node writes go to first.
//
// Reads load-balance round-robin across followers that are alive, in contact
// with the primary, and within the staleness bound; with none eligible they
// go to the configured node, and when that fails they fail over to the
// freshest followers. Writes try candidate leaders in turn — the hint, the
// configured node, the node a notPrimary rejection names, then the leader the
// replicas report — and move on only when the last candidate provably did not
// execute the request. Node reads and control methods stay on the configured
// node.
package client

import (
	"errors"
	"fmt"
	"slices"
	"sync/atomic"
	"time"

	"nnexus/internal/wire"
)

// DefaultStalenessBound is how many records a follower may lag behind the
// primary head and still serve routed reads.
const DefaultStalenessBound = 1024

// DefaultReplicaProbeInterval is how often each replica's replStatus is
// probed for routing eligibility.
const DefaultReplicaProbeInterval = 500 * time.Millisecond

// ErrNoPrimary reports that a write could not reach the primary: the
// connection failed, and the request either never left or its fate is
// unknown. The error also wraps the connection failure. Reads keep failing
// over to replicas; writes cannot, so the caller gets this clean, typed error
// to reconcile.
var ErrNoPrimary = errors.New("client: primary unavailable for writes")

// replica is the routing view of one read replica.
type replica struct {
	addr string
	c    *Client

	alive atomic.Bool   // last probe (or use) succeeded
	stale atomic.Bool   // follower reported lost contact with its primary
	lag   atomic.Uint64 // records behind the primary head it last observed
}

// routable reports whether the replica may serve a normal read: the
// primary is alive, so staleness must be provably within the bound.
func (r *replica) routable(bound uint64) bool {
	return r.alive.Load() && !r.stale.Load() && r.lag.Load() <= bound
}

// usableForFailover reports whether the replica may serve a read when the
// primary is unreachable: a stale follower is acceptable (it cannot catch
// up with a dead primary) as long as it answers and was within the bound.
func (r *replica) usableForFailover(bound uint64) bool {
	return r.alive.Load() && r.lag.Load() <= bound
}

// WithReplicas adds read replicas to the client's member set: routed reads
// (wire.KindRead) load-balance across caught-up followers, and on primary
// loss reads fail over to followers while writes fail with ErrNoPrimary.
// Replica connections are dialed lazily, so listing a currently-down replica
// does not fail Dial.
func WithReplicas(addrs ...string) Option {
	return func(c *Client) {
		for _, addr := range addrs {
			c.replicas = append(c.replicas, &replica{addr: addr})
		}
	}
}

// WithStalenessBound sets how many records a replica may lag and still
// serve routed reads (default DefaultStalenessBound). Zero routes only to
// fully caught-up replicas.
func WithStalenessBound(records uint64) Option {
	return func(c *Client) { c.staleness = records }
}

// WithReplicaProbeInterval sets the lag-probe cadence (default
// DefaultReplicaProbeInterval).
func WithReplicaProbeInterval(d time.Duration) Option {
	return func(c *Client) {
		if d > 0 {
			c.probeEvery = d
		}
	}
}

// peer returns the client that talks to addr: this one for the configured
// node, else a lazily-dialed sub-client sharing its tuning, made on first use
// and kept until Close, so a leader hint never names a closed client. It
// returns nil for "" and this client itself once closed, whose calls fail
// with ErrClosed.
func (c *Client) peer(addr string) *Client {
	if addr == "" {
		return nil
	}
	if addr == c.addr {
		return c
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return c
	}
	p := c.peers[addr]
	if p == nil {
		p = &Client{
			addr:        addr,
			dialTimeout: c.dialTimeout,
			callTimeout: c.callTimeout,
			maxRetries:  c.maxRetries,
			backoffBase: c.backoffBase,
			backoffMax:  c.backoffMax,
			window:      c.window,
		}
		if p.dialTimeout <= 0 {
			// A probe or a redirect must not hang on a dead node for the
			// operating system's dial timeout.
			p.dialTimeout = 5 * time.Second
		}
		if c.peers == nil {
			c.peers = make(map[string]*Client)
		}
		c.peers[addr] = p
	}
	return p
}

// probeLoop refreshes every replica's routing state, at once and then every
// probeEvery, until Close.
func (c *Client) probeLoop() {
	defer close(c.probed)
	ticker := time.NewTicker(c.probeEvery)
	defer ticker.Stop()
	for {
		c.probeAll()
		select {
		case <-c.stopProbe:
			return
		case <-ticker.C:
		}
	}
}

func (c *Client) probeAll() {
	for _, r := range c.replicas {
		payload, _, err := r.c.ReplStatus()
		switch {
		case err != nil:
			r.alive.Store(false)
		case payload.Role == wire.RolePrimary:
			// A listed replica was promoted: it no longer serves routed
			// reads, but it is exactly where writes must go.
			r.alive.Store(false)
			c.leader.Store(r.c)
		case payload.Role != wire.RoleFollower:
			r.alive.Store(false)
		default:
			// A hinted replica that reverted to follower is no longer the
			// primary. (A follower's leader string is not cached here: in
			// steady state it names the configured primary, possibly under
			// another address, and must not divert writes. discoverLeader
			// consults it after a write is rejected.)
			c.leader.CompareAndSwap(r.c, nil)
			lag := uint64(0)
			if payload.Head > payload.Applied {
				lag = payload.Head - payload.Applied
			}
			r.lag.Store(lag)
			r.stale.Store(payload.Stale)
			r.alive.Store(true)
		}
	}
}

// discoverLeader asks every replica who the primary is: a replica answering
// with the primary role wins outright; otherwise the first follower naming a
// leader decides. It returns "" when nobody knows.
func (c *Client) discoverLeader() string {
	var named string
	for _, r := range c.replicas {
		payload, leader, err := r.c.ReplStatus()
		if err != nil {
			continue
		}
		if payload.Role == wire.RolePrimary {
			return r.addr
		}
		if named == "" {
			named = leader
		}
	}
	return named
}

// pick returns the next routable replica round-robin, or nil when none
// qualifies.
func (c *Client) pick() *replica {
	n := len(c.replicas)
	if n == 0 {
		return nil
	}
	start := c.rr.Add(1)
	for i := 0; i < n; i++ {
		r := c.replicas[(int(start)+i)%n]
		if r.routable(c.staleness) {
			return r
		}
	}
	return nil
}

// failover tries each replica usable while the primary is unreachable once,
// in round-robin order, and returns the first success.
func (c *Client) failover(req *wire.Request) (*wire.Response, bool) {
	n := len(c.replicas)
	start := c.rr.Add(1)
	for i := 0; i < n; i++ {
		r := c.replicas[(int(start)+i)%n]
		if !r.usableForFailover(c.staleness) {
			continue
		}
		resp, _, err := r.c.send(req)
		if err == nil {
			return resp, true
		}
		if isConnFailure(err) {
			r.alive.Store(false)
		}
	}
	return nil, false
}

// isConnFailure reports whether err is a transport-level failure (as
// opposed to an application error the server answered with, or a closed
// client).
func isConnFailure(err error) bool {
	if err == nil || errors.Is(err, ErrClosed) {
		return false
	}
	var se *ServerError
	return !errors.As(err, &se)
}

// call is the path of every typed method: its kind in wire.Methods picks the
// route.
func (c *Client) call(req *wire.Request) (*wire.Response, error) {
	switch wire.Methods[req.Method] {
	case wire.KindWrite:
		return c.write(req)
	case wire.KindRead:
		return c.read(req)
	}
	resp, _, err := c.send(req)
	return resp, err
}

// read serves a routed read: a caught-up replica, else the configured node,
// else — when that node's connection fails — any replica still usable.
func (c *Client) read(req *wire.Request) (*wire.Response, error) {
	if r := c.pick(); r != nil {
		resp, _, err := r.c.send(req)
		if err == nil {
			return resp, nil
		}
		if isConnFailure(err) {
			r.alive.Store(false)
		}
	}
	resp, _, err := c.send(req)
	if isConnFailure(err) {
		if resp, ok := c.failover(req); ok {
			return resp, nil
		}
	}
	return resp, err
}

// write sends a mutating request to the leader. It tries the leader hint, the
// configured node, the node a notPrimary rejection named, and the leader the
// replicas report, each at most once, and remembers the one that executes the
// request as the hint. It moves to the next candidate only after a verdict
// that proves the request did not execute: notPrimary, or a failure before it
// reached the wire. Any other verdict is final: a connection failure as
// ErrNoPrimary, since the request may have executed and must not run twice,
// and a server's answer unchanged. With no candidate left, nothing executed:
// the caller gets the last notPrimary, or ErrNoPrimary when no node answered.
func (c *Client) write(req *wire.Request) (*wire.Response, error) {
	var (
		tried    [4]*Client
		rejected *ServerError // the last notPrimary
		err      error
	)
	for step := range tried {
		var to *Client
		switch step {
		case 0:
			to = c.leader.Load()
		case 1:
			to = c
		case 2:
			if rejected != nil {
				to = c.peer(rejected.Leader)
			}
		case 3:
			to = c.peer(c.discoverLeader())
		}
		if to == nil || slices.Contains(tried[:step], to) {
			continue
		}
		tried[step] = to
		resp, class, e := to.send(req)
		if e == nil {
			if to != c {
				c.leader.Store(to)
			}
			return resp, nil
		}
		err = e
		var se *ServerError
		switch {
		case errors.As(e, &se) && se.Code == wire.CodeNotPrimary:
			rejected = se
		case class != failNotSent:
			return nil, noPrimary(e)
		}
		c.leader.CompareAndSwap(to, nil)
	}
	if rejected != nil {
		return nil, rejected
	}
	return nil, noPrimary(err)
}

// noPrimary reports a write's connection failure as ErrNoPrimary, still
// wrapping the cause; any other error passes unchanged.
func noPrimary(err error) error {
	if isConnFailure(err) {
		return fmt.Errorf("%w: %w", ErrNoPrimary, err)
	}
	return err
}
