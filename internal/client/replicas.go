// Replica-aware routing: a client constructed with WithReplicas(...) keeps
// one sub-client per read replica and a background probe of each replica's
// replStatus. Reads load-balance round-robin across followers that are
// alive, in contact with the primary, and within the staleness bound
// (falling back to the primary when none qualify); writes pin to the
// current primary. On primary loss, reads fail over to the freshest
// followers and writes re-discover the elected primary from the replicas'
// replStatus (a probe reporting the primary role, a follower's leader hint,
// or a notPrimary redirect) and resume there — only a request whose fate is
// unknown is left unrepeated, surfacing ErrNoPrimary or the raw error for
// the caller to reconcile.
package client

import (
	"errors"
	"fmt"
	"sync"
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

// ErrNoPrimary reports that a write could not reach the primary. Reads keep
// failing over to replicas; writes cannot, so the caller gets this clean,
// typed error instead of a generic connection failure.
var ErrNoPrimary = errors.New("client: primary unavailable for writes")

// IsNotPrimary reports whether err is a follower's typed rejection of a
// mutating method.
func IsNotPrimary(err error) bool {
	var se *ServerError
	return errors.As(err, &se) && se.Code == wire.CodeNotPrimary
}

// routedReads lists the read-surface methods that load-balance across
// caught-up replicas. ping and stats stay node-pinned on purpose: they
// describe one node, not the collection's logical state.
var routedReads = map[string]bool{
	wire.MethodGetEntry:    true,
	wire.MethodLinkEntry:   true,
	wire.MethodLinkText:    true,
	wire.MethodLinkBatch:   true,
	wire.MethodInvalidated: true,
	wire.MethodShardScan:   true,
}

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

// replicaSet is the routing layer attached to a Client by WithReplicas.
type replicaSet struct {
	parent     *Client
	replicas   []*replica
	staleness  uint64
	probeEvery time.Duration
	rr         atomic.Uint64

	// hintMu guards leaderAddr — the freshest known primary address after a
	// failover (a listed replica answering replStatus with the primary role,
	// or a follower naming its leader). Writes try it before the configured
	// address once set.
	hintMu     sync.Mutex
	leaderAddr string

	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
}

// leaderHint returns the freshest known primary address ("" when none).
func (rs *replicaSet) leaderHint() string {
	rs.hintMu.Lock()
	defer rs.hintMu.Unlock()
	return rs.leaderAddr
}

func (rs *replicaSet) setLeaderHint(addr string) {
	rs.hintMu.Lock()
	rs.leaderAddr = addr
	rs.hintMu.Unlock()
}

// clearLeaderHint drops the hint if it still names addr (a newer hint is
// kept).
func (rs *replicaSet) clearLeaderHint(addr string) {
	rs.hintMu.Lock()
	if rs.leaderAddr == addr {
		rs.leaderAddr = ""
	}
	rs.hintMu.Unlock()
}

// WithReplicas attaches read replicas to the client: routed reads
// (getEntry, linkEntry, linkText, linkBatch, invalidated) load-balance
// across caught-up followers, writes pin to the primary, and on primary
// loss reads fail over to followers while writes fail with ErrNoPrimary.
// Replica connections are dialed lazily, so listing a currently-down
// replica does not fail Dial.
func WithReplicas(addrs ...string) Option {
	return func(c *Client) {
		if len(addrs) == 0 {
			return
		}
		rs := &replicaSet{
			parent:     c,
			staleness:  DefaultStalenessBound,
			probeEvery: DefaultReplicaProbeInterval,
			stop:       make(chan struct{}),
			done:       make(chan struct{}),
		}
		for _, addr := range addrs {
			rs.replicas = append(rs.replicas, &replica{addr: addr, c: c.subClient(addr)})
		}
		c.replicas = rs
	}
}

// WithStalenessBound sets how many records a replica may lag and still
// serve routed reads (default DefaultStalenessBound). Zero routes only to
// fully caught-up replicas.
func WithStalenessBound(records uint64) Option {
	return func(c *Client) {
		if c.replicas != nil {
			c.replicas.staleness = records
		}
	}
}

// WithReplicaProbeInterval sets the lag-probe cadence (default
// DefaultReplicaProbeInterval). Must appear after WithReplicas.
func WithReplicaProbeInterval(d time.Duration) Option {
	return func(c *Client) {
		if c.replicas != nil && d > 0 {
			c.replicas.probeEvery = d
		}
	}
}

// subClient builds a lazily-dialed client sharing the parent's tuning. Sub
// clients never have replica sets of their own.
func (c *Client) subClient(addr string) *Client {
	return &Client{
		addr:        addr,
		dialTimeout: c.dialTimeout,
		callTimeout: c.callTimeout,
		maxRetries:  c.maxRetries,
		backoffBase: c.backoffBase,
		backoffMax:  c.backoffMax,
		window:      c.window,
	}
}

// start launches the probe loop (an immediate round first, so freshly
// dialed clients route correctly without waiting a full interval).
func (rs *replicaSet) start() {
	if rs.parent.dialTimeout <= 0 {
		// Lazy dials inherit the parent's dial timeout; make sure probes of
		// dead replicas cannot hang the loop.
		for _, r := range rs.replicas {
			r.c.dialTimeout = 5 * time.Second
		}
	}
	go func() {
		defer close(rs.done)
		rs.probeAll()
		ticker := time.NewTicker(rs.probeEvery)
		defer ticker.Stop()
		for {
			select {
			case <-rs.stop:
				return
			case <-ticker.C:
				rs.probeAll()
			}
		}
	}()
}

func (rs *replicaSet) stopProbing() {
	rs.stopOnce.Do(func() { close(rs.stop) })
	<-rs.done
	for _, r := range rs.replicas {
		r.c.Close()
	}
}

func (rs *replicaSet) probeAll() {
	for _, r := range rs.replicas {
		payload, _, err := r.c.ReplStatus()
		if err != nil || payload == nil {
			r.alive.Store(false)
			continue
		}
		if payload.Role == wire.RolePrimary {
			// A listed replica was promoted: it no longer serves routed
			// reads, but it is exactly where failed-over writes must go.
			r.alive.Store(false)
			rs.setLeaderHint(r.addr)
			continue
		}
		if payload.Role != wire.RoleFollower {
			r.alive.Store(false)
			continue
		}
		// A hinted replica that reverted to follower is no longer the
		// primary; drop the hint. (A follower's leader STRING is not cached
		// here — in steady state it merely names the configured primary,
		// possibly under a different address, and must not divert writes.
		// discoverLeader consults it on demand after a failure.)
		rs.clearLeaderHint(r.addr)
		lag := uint64(0)
		if payload.Head > payload.Applied {
			lag = payload.Head - payload.Applied
		}
		r.lag.Store(lag)
		r.stale.Store(payload.Stale)
		r.alive.Store(true)
	}
}

// discoverLeader synchronously asks every listed replica who the primary is:
// a replica answering with the primary role wins outright; otherwise the
// first follower naming a leader decides. The result (possibly "") also
// refreshes the cached hint.
func (rs *replicaSet) discoverLeader() string {
	var hinted string
	for _, r := range rs.replicas {
		payload, leader, err := r.c.ReplStatus()
		if err != nil || payload == nil {
			continue
		}
		if payload.Role == wire.RolePrimary {
			rs.setLeaderHint(r.addr)
			return r.addr
		}
		if hinted == "" && leader != "" {
			hinted = leader
		}
	}
	if hinted != "" {
		rs.setLeaderHint(hinted)
	}
	return hinted
}

// pick returns the next routable replica round-robin, or nil when none
// qualifies (the read then goes to the primary).
func (rs *replicaSet) pick() *replica {
	n := len(rs.replicas)
	start := rs.rr.Add(1)
	for i := 0; i < n; i++ {
		r := rs.replicas[(int(start)+i)%n]
		if r.routable(rs.staleness) {
			return r
		}
	}
	return nil
}

// failover tries each usable replica once, in round-robin order. It
// returns the first success.
func (rs *replicaSet) failover(req *wire.Request) (*wire.Response, error, bool) {
	n := len(rs.replicas)
	start := rs.rr.Add(1)
	for i := 0; i < n; i++ {
		r := rs.replicas[(int(start)+i)%n]
		if !r.usableForFailover(rs.staleness) {
			continue
		}
		resp, err := r.c.callLocal(req)
		if err == nil {
			return resp, nil, true
		}
		if isConnFailure(err) {
			r.alive.Store(false)
		}
	}
	return nil, nil, false
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

// route is the call path of every typed method. Reads consult the replica
// set; writes pin to the primary with a single notPrimary redirect.
func (c *Client) route(req *wire.Request) (*wire.Response, error) {
	rs := c.replicas
	if rs != nil && routedReads[req.Method] {
		if r := rs.pick(); r != nil {
			resp, err := r.c.callLocal(req)
			if err == nil {
				return resp, nil
			}
			if isConnFailure(err) {
				r.alive.Store(false)
			}
			// Fall through to the primary (and, below, to failover).
		}
		resp, err := c.callLocal(req)
		if err != nil && isConnFailure(err) {
			if fresp, ferr, ok := rs.failover(req); ok {
				return fresp, ferr
			}
		}
		return resp, err
	}

	if rs != nil && wire.Mutating(req.Method) {
		return c.routeWrite(rs, req)
	}

	resp, err := c.callLocal(req)
	if err == nil {
		return resp, nil
	}
	var se *ServerError
	if errors.As(err, &se) && se.Code == wire.CodeNotPrimary && se.Leader != "" && se.Leader != c.addr {
		// We were pointed at a follower; follow the leader hint exactly
		// once (the leader client is cached for subsequent writes).
		if resp2, err2 := c.leaderClient(se.Leader).callLocal(req); err2 == nil {
			return resp2, nil
		}
		return nil, err
	}
	return nil, err
}

// routeWrite is the mutating-method path for replica-aware clients. It makes
// writes survive an automatic failover: a known promoted replica is tried
// first, a notPrimary rejection follows the server's leader hint and then
// asks the followers who won, and a connection failure that provably never
// reached the wire re-discovers the leader and re-issues there. A request
// whose fate is unknown (sent, then the connection died) is NEVER re-issued
// at another node — re-executing a possibly-applied mutation risks
// duplicates — so it surfaces as an error for the caller to reconcile.
func (c *Client) routeWrite(rs *replicaSet, req *wire.Request) (*wire.Response, error) {
	if hint := rs.leaderHint(); hint != "" && hint != c.addr {
		resp, class, err := c.leaderClient(hint).callLocalClassed(req)
		switch {
		case err == nil:
			return resp, nil
		case IsNotPrimary(err) || class == failNotSent:
			// Stale hint; fall through to the configured primary.
			rs.clearLeaderHint(hint)
		default:
			// failUnknown included: the request may have executed at the
			// hinted node, so it must not be re-issued anywhere else.
			if isConnFailure(err) {
				return nil, fmt.Errorf("%w: %v", ErrNoPrimary, err)
			}
			return nil, err
		}
	}

	resp, class, err := c.callLocalClassed(req)
	if err == nil {
		return resp, nil
	}
	var se *ServerError
	if errors.As(err, &se) && se.Code == wire.CodeNotPrimary {
		// The write was rejected before executing, so re-issuing elsewhere
		// is safe. Follow the server's leader hint first, then ask the
		// replicas who won the election. But each retry's OWN fate matters:
		// once an attempt ends failUnknown (sent, then the connection died),
		// the mutation may have executed there, so it must not be re-issued
		// at yet another address — and the original notPrimary error must
		// not be returned either, since callers are documented to treat
		// notPrimary as rejected-before-execution and may safely retry it.
		if se.Leader != "" && se.Leader != c.addr {
			resp2, class2, err2 := c.leaderClient(se.Leader).callLocalClassed(req)
			switch {
			case err2 == nil:
				rs.setLeaderHint(se.Leader)
				return resp2, nil
			case IsNotPrimary(err2) || class2 == failNotSent:
				// Provably never executed there; asking the replicas who
				// won remains safe.
			case isConnFailure(err2):
				return nil, fmt.Errorf("%w: %v", ErrNoPrimary, err2)
			default:
				// The hinted leader answered: its verdict on the executed
				// request, not the follower's pre-execution rejection, is
				// the caller's truth.
				return nil, err2
			}
		}
		if addr := rs.discoverLeader(); addr != "" && addr != c.addr && addr != se.Leader {
			resp2, class2, err2 := c.leaderClient(addr).callLocalClassed(req)
			switch {
			case err2 == nil:
				return resp2, nil
			case IsNotPrimary(err2) || class2 == failNotSent:
			case isConnFailure(err2):
				return nil, fmt.Errorf("%w: %v", ErrNoPrimary, err2)
			default:
				return nil, err2
			}
		}
		return nil, err
	}
	if isConnFailure(err) {
		if class == failNotSent {
			// The request never reached the old primary; discover the new
			// one and re-issue.
			if addr := rs.discoverLeader(); addr != "" && addr != c.addr {
				if resp2, _, err2 := c.leaderClient(addr).callLocalClassed(req); err2 == nil {
					return resp2, nil
				}
			}
		}
		return nil, fmt.Errorf("%w: %v", ErrNoPrimary, err)
	}
	return nil, err
}

// leaderClient returns (creating and caching if needed) a client for the
// leader address a follower redirected us to.
func (c *Client) leaderClient(addr string) *Client {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.leaderCli == nil || c.leaderCli.addr != addr {
		if c.leaderCli != nil {
			go c.leaderCli.Close()
		}
		c.leaderCli = c.subClient(addr)
	}
	return c.leaderCli
}
