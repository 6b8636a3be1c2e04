// Package replication implements WAL-shipping replication for the linking
// tier: a primary node streams its write-ahead log — the same CRC-checked,
// group-committed records internal/storage appends — to any number of
// followers, which apply the records into their own store and feed the
// engine's maintenance path, so every follower publishes the same immutable
// concept-map snapshots and serves the full read surface.
//
// The transport is the wire package's XML protocol: a follower long-polls
// replSubscribe for batches of records, bootstraps (and re-bootstraps after
// epoch changes or falling behind the primary's retained log) from a
// replSnapshot state export, and reports its applied offset with replAck so
// the primary can account per-follower lag. Offsets are the storage layer's
// 1-based record numbers; an epoch identifies one continuous streamed
// history, and any discontinuity (primary crash with unsynced tail, WAL
// rollback failure, snapshot reset) bumps it, forcing followers through a
// snapshot re-bootstrap instead of silently diverging.
package replication

import (
	"cmp"
	"errors"
	"fmt"
	"sync"
	"time"

	"nnexus/internal/clock"
	"nnexus/internal/storage"
	"nnexus/internal/telemetry"
	"nnexus/internal/wire"
)

// DefaultMaxBatch caps how many records one replSubscribe response carries.
const DefaultMaxBatch = 512

// DefaultMaxWait caps how long a caught-up replSubscribe long-poll blocks
// before returning an empty batch.
const DefaultMaxWait = 10 * time.Second

// RolePrimary, RoleFollower and RoleSingle name a node's replication role
// on the wire and in readiness reports (aliases of the wire constants).
const (
	RolePrimary  = wire.RolePrimary
	RoleFollower = wire.RoleFollower
	RoleSingle   = wire.RoleSingle
)

// ErrQuorumUnavailable reports that a quorum-acknowledged write could not
// gather the configured number of follower confirmations within its commit
// timeout. The write is durable on the primary and will replicate; only the
// quorum guarantee is degraded, so callers must not assume the write
// survives a primary failover.
var ErrQuorumUnavailable = errors.New("replication: quorum unavailable")

// NotPrimaryError rejects a mutation that reached a node which may not
// write. The request was not executed, so the client may send the very same
// request to Leader.
type NotPrimaryError struct {
	Leader string // where writes should go; "" when unknown (mid-election)
	reason string
}

func (e *NotPrimaryError) Error() string { return "not primary: " + e.reason }

// followerState is the primary's accounting for one subscriber.
type followerState struct {
	acked uint64
	gauge *telemetry.Gauge
}

// quorumWaiter is one write blocked in WaitQuorum: ch closes once k
// followers have acknowledged offset (or the primary drains).
type quorumWaiter struct {
	offset uint64
	k      int
	ch     chan struct{}
}

// Primary serves a store's replication log to subscribing followers.
type Primary struct {
	store      *storage.Store
	lagVec     *telemetry.GaugeVec
	quorumHist *telemetry.Histogram

	mu        sync.Mutex
	followers map[string]*followerState
	waiters   []*quorumWaiter
	draining  bool
	drainCh   chan struct{}
}

// NewPrimary wraps a store opened with storage.WithReplication. It
// registers the per-follower replication lag gauge
// nnexus_replication_lag_records and the quorum-commit latency histogram
// nnexus_quorum_commit_seconds on reg (nil registers on a private registry).
func NewPrimary(store *storage.Store, reg *telemetry.Registry) (*Primary, error) {
	if !store.ReplicationEnabled() {
		return nil, errors.New("replication: store opened without WithReplication")
	}
	reg = cmp.Or(reg, telemetry.NewRegistry())
	return &Primary{
		store: store,
		lagVec: reg.GaugeVec("nnexus_replication_lag_records",
			"Records the primary has applied but the follower has not acknowledged.",
			"follower"),
		quorumHist: reg.Histogram("nnexus_quorum_commit_seconds",
			"Time a quorum-acknowledged write waited for its follower confirmations."),
		followers: make(map[string]*followerState),
		drainCh:   make(chan struct{}),
	}, nil
}

// Subscribe answers one replSubscribe exchange: records from offset `from`
// under `epoch`, at most max records, long-polling up to wait when caught
// up. The returned payload carries Reset=true when the follower cannot
// resume from its offset (epoch change, offset below the retained log's
// base, or offset ahead of the primary's head — a divergent follower) and
// must fetch a Snapshot. A caught-up subscribe during a drain returns
// immediately, so subscriber connections retire promptly on shutdown.
func (p *Primary) Subscribe(from, epoch uint64, max int, wait time.Duration) (*wire.ReplPayload, error) {
	if max <= 0 || max > DefaultMaxBatch {
		max = DefaultMaxBatch
	}
	if wait < 0 || wait > DefaultMaxWait {
		wait = DefaultMaxWait
	}
	deadline := clock.Now().Add(wait)

	// Register for append wakeups before the first read, so a record applied
	// between the read and the wait cannot be missed.
	ch := make(chan struct{}, 1)
	cancel := p.store.WatchAppends(ch)
	defer cancel()

	for {
		curEpoch := p.store.ReplicationEpoch()
		recs, head, err := p.store.ReadRecords(from, max)
		switch {
		case epoch != curEpoch || errors.Is(err, storage.ErrCompacted):
			return &wire.ReplPayload{Role: RolePrimary, Epoch: curEpoch, Head: head, Reset: true}, nil
		case err != nil:
			return nil, err
		case from > head+1:
			// The follower claims records the primary never applied: its
			// history diverged (e.g. it outlived a primary rollback that
			// failed to bump the epoch). Re-bootstrap.
			return &wire.ReplPayload{Role: RolePrimary, Epoch: curEpoch, Head: head, Reset: true}, nil
		}
		if len(recs) > 0 {
			payload := &wire.ReplPayload{Role: RolePrimary, Epoch: curEpoch, Head: head}
			payload.Records = make([]wire.ReplRecord, len(recs))
			for i, body := range recs {
				payload.Records[i] = wire.NewReplRecord(from+uint64(i), body)
			}
			return payload, nil
		}
		remaining := deadline.Sub(clock.Now())
		if remaining <= 0 || p.Draining() {
			return &wire.ReplPayload{Role: RolePrimary, Epoch: curEpoch, Head: head}, nil
		}
		timer := clock.NewTimer(remaining)
		select {
		case <-ch:
		case <-p.drainCh:
		case <-timer.C:
		}
		timer.Stop()
	}
}

// Snapshot answers one replSnapshot exchange: a full state export
// positioned at the current head, for follower bootstrap.
func (p *Primary) Snapshot() (*wire.ReplPayload, error) {
	ops, head, epoch, err := p.store.ExportState()
	if err != nil {
		return nil, err
	}
	return &wire.ReplPayload{
		Role:  RolePrimary,
		Epoch: epoch,
		Head:  head,
		Snap:  SnapToWire(ops),
	}, nil
}

// Ack records a follower's applied offset for lag accounting and updates
// its nnexus_replication_lag_records gauge.
func (p *Primary) Ack(follower string, offset uint64) {
	if follower == "" {
		return
	}
	head := p.store.ReplicationHead()
	p.mu.Lock()
	defer p.mu.Unlock()
	st, ok := p.followers[follower]
	if !ok {
		st = &followerState{gauge: p.lagVec.With(follower)}
		p.followers[follower] = st
	}
	if offset > st.acked {
		st.acked = offset
	}
	lag := int64(0)
	if head > st.acked {
		lag = int64(head - st.acked)
	}
	st.gauge.Set(lag)
	p.wakeQuorumLocked()
}

// ackedCountLocked counts followers whose acknowledged offset has reached
// offset. Callers must hold p.mu.
func (p *Primary) ackedCountLocked(offset uint64) int {
	n := 0
	for _, st := range p.followers {
		if st.acked >= offset {
			n++
		}
	}
	return n
}

// wakeQuorumLocked completes every quorum waiter whose confirmation count
// has been reached. Callers must hold p.mu.
func (p *Primary) wakeQuorumLocked() {
	if len(p.waiters) == 0 {
		return
	}
	kept := p.waiters[:0]
	for _, w := range p.waiters {
		if p.ackedCountLocked(w.offset) >= w.k {
			close(w.ch)
		} else {
			kept = append(kept, w)
		}
	}
	p.waiters = kept
}

// removeWaiter unregisters a timed-out waiter. It reports whether the
// waiter was still registered (false means it raced a wakeup and its ch is
// closed: the quorum was in fact reached).
func (p *Primary) removeWaiter(w *quorumWaiter) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	for i, cur := range p.waiters {
		if cur == w {
			p.waiters = append(p.waiters[:i], p.waiters[i+1:]...)
			return true
		}
	}
	return false
}

// WaitQuorum blocks until k followers have acknowledged offset as durable,
// piggybacking on the replAck flow of the subscribe long-poll — the happy
// path costs one extra round trip after the local commit. It degrades with
// a typed ErrQuorumUnavailable after timeout (or when the primary drains)
// rather than hanging writers: the write is already durable locally and
// will still replicate, only its quorum guarantee is unmet. k <= 0 returns
// immediately.
func (p *Primary) WaitQuorum(offset uint64, k int, timeout time.Duration) error {
	if k <= 0 {
		return nil
	}
	start := clock.Now()
	p.mu.Lock()
	if p.ackedCountLocked(offset) >= k {
		p.mu.Unlock()
		p.quorumHist.Observe(clock.Now().Sub(start).Seconds())
		return nil
	}
	if p.draining {
		p.mu.Unlock()
		return fmt.Errorf("%w: primary draining", ErrQuorumUnavailable)
	}
	w := &quorumWaiter{offset: offset, k: k, ch: make(chan struct{})}
	p.waiters = append(p.waiters, w)
	p.mu.Unlock()

	timer := clock.NewTimer(timeout)
	defer timer.Stop()
	select {
	case <-w.ch:
		p.quorumHist.Observe(clock.Now().Sub(start).Seconds())
		return nil
	case <-p.drainCh:
		if !p.removeWaiter(w) {
			return nil // quorum reached concurrently
		}
		return fmt.Errorf("%w: primary draining", ErrQuorumUnavailable)
	case <-timer.C:
		if !p.removeWaiter(w) {
			return nil // quorum reached concurrently
		}
		p.mu.Lock()
		n := p.ackedCountLocked(offset)
		p.mu.Unlock()
		return fmt.Errorf("%w: %d of %d follower acks for offset %d within %v",
			ErrQuorumUnavailable, n, k, offset, timeout)
	}
}

// Head returns the newest applied record offset of the primary's store —
// the offset a quorum-acknowledged write waits on.
func (p *Primary) Head() uint64 { return p.store.ReplicationHead() }

// status fills in the primary's part of a node's Status: its store's
// history epoch and head, and each acknowledging follower's lag behind it.
func (p *Primary) status(st *Status) {
	head := p.store.ReplicationHead()
	st.Epoch, st.Head, st.Applied, st.Synced = p.store.ReplicationEpoch(), head, head, true
	p.mu.Lock()
	defer p.mu.Unlock()
	st.Followers = make(map[string]uint64, len(p.followers))
	for name, f := range p.followers {
		lag := head - min(f.acked, head)
		st.Followers[name] = lag
		st.MaxLag = max(st.MaxLag, lag)
	}
}

// Drain wakes every blocked subscribe long-poll so subscriber connections
// can flush a final (possibly empty) batch and close cleanly; subsequent
// subscribes return immediately. Server.Shutdown calls this before waiting
// for in-flight requests.
func (p *Primary) Drain() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.draining {
		p.draining = true
		close(p.drainCh)
	}
}

// Draining reports whether Drain has been called.
func (p *Primary) Draining() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.draining
}

// SnapToWire converts a state export to its wire form.
func SnapToWire(ops []storage.BatchOp) []wire.SnapOp {
	out := make([]wire.SnapOp, len(ops))
	for i, o := range ops {
		out[i] = wire.NewSnapOp(o.Table, o.Key, o.Value)
	}
	return out
}

// SnapFromWire converts a wire snapshot back to storage ops.
func SnapFromWire(snap []wire.SnapOp) ([]storage.BatchOp, error) {
	out := make([]storage.BatchOp, len(snap))
	for i := range snap {
		o := &snap[i]
		value, err := o.DecodeValue()
		if err != nil {
			return nil, fmt.Errorf("replication: snapshot op %d: %w", i, err)
		}
		out[i] = storage.BatchOp{Table: o.Table, Key: o.Key, Value: value, Delete: o.Delete}
	}
	return out, nil
}
