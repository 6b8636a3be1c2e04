// Follower-side replication: a background sync loop long-polls the primary
// for WAL records, applies each one into the local store (which writes it
// byte-for-byte to the follower's own WAL, so crash recovery resumes from
// the last durable offset) and feeds the decoded mutations to the engine's
// replica maintenance path. A follower that cannot resume from its offset —
// first contact, an epoch change, or falling behind the primary's retained
// log — bootstraps from a snapshot export instead.
package replication

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"nnexus/internal/clock"
	"nnexus/internal/storage"
	"nnexus/internal/wire"
)

// primaryEpochName is the state file of the follower's store that persists
// which primary epoch the local state was synced under, so a restarted
// follower can tell whether its replayed WAL still belongs to the primary's
// current history.
const primaryEpochName = "primary.epoch"

// Source is the follower's view of its primary — the three replication
// exchanges of the wire protocol. *client.Client implements it.
type Source interface {
	ReplSubscribe(from, epoch uint64, max, waitMillis int, follower string) (*wire.ReplPayload, error)
	ReplSnapshot() (*wire.ReplPayload, error)
	ReplAck(follower string, offset, epoch uint64) error
}

// Applier is the engine side of a follower: it receives every replicated
// record's decoded mutations and full-state resets. *core.Engine implements
// it (see core.Engine.ApplyReplicated); nil disables the engine feed (the
// store still replicates, useful in storage-level tests).
type Applier interface {
	ApplyReplicated(ops []storage.BatchOp) error
	ResetReplicated(ops []storage.BatchOp) error
}

// Follower replicates a primary's WAL into a local store and engine.
type Follower struct {
	store   *storage.Store
	applier Applier
	name    string
	wait    time.Duration

	mu    sync.Mutex
	src   Source
	epoch uint64
	// applied is the newest offset fed through to the engine. The store's
	// head moves first, so a read routed here after the node's Status reports
	// an offset sees that offset's record.
	applied     uint64
	head        uint64 // primary head last observed
	synced      bool
	lastErr     error
	lastContact time.Time // last successful exchange with the primary

	startOnce sync.Once
	stopOnce  sync.Once
	stop      chan struct{}
	done      chan struct{}
	// retargeted wakes the sync loop out of its retry backoff. Capacity 1:
	// the loop re-reads the source anyway, so one pending wake-up is enough.
	retargeted chan struct{}
}

// NewFollower assembles a follower over a local store (its durable replica
// state), an optional engine applier, and a source connected to the
// primary. name is what the follower identifies itself with in replAck
// ("" is the local hostname, falling back to "follower"); wait is the
// long-poll duration it requests from the primary (0 is 5s). Call Start to
// begin syncing.
func NewFollower(store *storage.Store, applier Applier, src Source, name string, wait time.Duration) (*Follower, error) {
	if store == nil {
		return nil, errors.New("replication: follower needs a store")
	}
	if src == nil {
		return nil, errors.New("replication: follower needs a source")
	}
	f := &Follower{
		store:      store,
		applier:    applier,
		src:        src,
		name:       name,
		wait:       wait,
		stop:       make(chan struct{}),
		done:       make(chan struct{}),
		retargeted: make(chan struct{}, 1),
	}
	if f.wait <= 0 {
		f.wait = 5 * time.Second
	}
	if f.name == "" {
		f.name = "follower"
		if host, err := os.Hostname(); err == nil && host != "" {
			f.name = host
		}
	}
	// An epoch never saved (a memory-only store keeps none), unreadable or
	// unparsable reads as 0, which mismatches any live primary epoch and
	// forces a bootstrap: the safe default for unknown local state.
	data, _ := store.LoadState(primaryEpochName)
	if epoch, err := strconv.ParseUint(strings.TrimSpace(string(data)), 10, 64); err == nil {
		f.epoch = epoch
	}
	f.applied = store.ReplicationHead()
	return f, nil
}

// Start seeds the engine from the local store's replayed state and launches
// the background sync loop. It returns once the seed is done; catching up
// with the primary happens asynchronously (watch the node's Status).
func (f *Follower) Start() error {
	var seedErr error
	f.startOnce.Do(func() {
		if f.applier != nil {
			ops, head, _, err := f.store.ExportState()
			if err == nil {
				err = f.applier.ResetReplicated(ops)
			}
			if err != nil {
				seedErr = fmt.Errorf("replication: seed engine from local store: %w", err)
				close(f.done)
				return
			}
			f.setApplied(head)
		}
		go f.syncLoop()
	})
	return seedErr
}

// Stop terminates the sync loop and waits for it to exit. The follower
// keeps serving reads from its last applied state after Stop.
func (f *Follower) Stop() {
	f.stopOnce.Do(func() {
		// A follower never started has no loop to wait for (and a Start
		// racing this Stop becomes a no-op).
		f.startOnce.Do(func() { close(f.done) })
		close(f.stop)
	})
	<-f.done
}

// status fills in the follower's part of a node's Status.
func (f *Follower) status(st *Status) {
	f.mu.Lock()
	defer f.mu.Unlock()
	st.Epoch, st.Applied, st.Head = f.epoch, f.applied, max(f.head, f.applied)
	st.Lag, st.Synced = st.Head-st.Applied, f.synced
	if f.lastErr != nil {
		st.Error = f.lastErr.Error()
	}
}

// Epoch returns the primary epoch the local state is synced under.
func (f *Follower) Epoch() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.epoch
}

// LastContact returns the time of the last successful exchange with the
// primary (zero before the first one). Election timeouts key off it: a
// primary silent longer than the tolerance window is presumed dead.
func (f *Follower) LastContact() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.lastContact
}

// Retarget switches the follower to a new primary: subsequent exchanges use
// src. The in-flight exchange finishes against the old source;
// the epoch check on the next subscribe forces a snapshot re-bootstrap from
// the new leader when its history epoch differs. A loop sleeping off the old
// source's failures is woken and its streak restarted: a backoff earned on a
// dead primary can outlast the new leader's election timeout, which reads
// this follower's silence as lost contact. The old source is NOT closed
// here — the caller owns both sources' lifecycles.
func (f *Follower) Retarget(src Source) {
	f.mu.Lock()
	f.src = src
	f.mu.Unlock()
	select {
	case f.retargeted <- struct{}{}:
	default:
	}
}

// source returns the current source under the lock (it can change across a
// Retarget mid-loop).
func (f *Follower) source() Source {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.src
}

// syncLoop is the follower's heartbeat: subscribe, apply, ack, repeat. After
// a failed exchange it sleeps a jittered exponential backoff — base ·2ⁿ for
// n consecutive failures, capped, with full jitter — so followers of a dead
// primary desynchronize instead of hammering it in lockstep; a Retarget cuts
// the sleep short and restarts the streak. It exits when Stop is called.
func (f *Follower) syncLoop() {
	defer close(f.done)
	needReset := false
	failStreak := 0
	for {
		select {
		case <-f.stop:
			return
		default:
		}
		var err error
		if needReset {
			err = f.bootstrap()
			if err == nil {
				needReset = false
			}
		} else {
			var reset bool
			reset, err = f.syncOnce()
			if reset {
				needReset = true
				continue
			}
		}
		f.mu.Lock()
		f.synced = err == nil
		f.lastErr = err
		if err == nil {
			f.lastContact = clock.Now()
		}
		f.mu.Unlock()
		if err == nil {
			failStreak = 0
			continue
		}
		select {
		case <-f.stop:
			return
		case <-f.retargeted:
			failStreak = 0
		case <-clock.After(retryBackoff(failStreak)):
			failStreak++
		}
	}
}

// The follower's retry backoff: a failed exchange with the primary is
// retried after a pause that doubles from followerBackoff with each
// consecutive failure, up to followerMaxBackoff, with full jitter, so a dead
// primary is not hammered in lockstep by every follower.
const (
	followerBackoff    = 250 * time.Millisecond
	followerMaxBackoff = 4 * time.Second
)

// retryBackoff returns the sleep before retrying after the n-th consecutive
// failure (0-based): uniformly jittered in (0, min(followerBackoff·2ⁿ,
// followerMaxBackoff)].
func retryBackoff(n int) time.Duration {
	d := min(followerBackoff<<min(n, 5), followerMaxBackoff)
	return time.Duration(rand.Int63n(int64(d))) + 1
}

// syncOnce performs one subscribe exchange and applies its records. It
// returns reset=true when the primary tells the follower to re-bootstrap.
func (f *Follower) syncOnce() (reset bool, err error) {
	from := f.store.ReplicationHead() + 1
	f.mu.Lock()
	epoch := f.epoch
	src := f.src
	f.mu.Unlock()
	payload, err := src.ReplSubscribe(from, epoch, DefaultMaxBatch, int(f.wait/time.Millisecond), f.name)
	if err != nil {
		return false, err
	}
	if payload == nil {
		return false, errors.New("replication: empty subscribe response")
	}
	if payload.Reset || payload.Epoch != epoch {
		return true, nil
	}
	for i := range payload.Records {
		rec := &payload.Records[i]
		body, err := rec.DecodeBody()
		if err != nil {
			return false, err
		}
		if err := f.applyRecord(body, rec.Offset); err != nil {
			if errors.Is(err, storage.ErrOffsetGap) {
				return true, nil
			}
			return false, err
		}
	}
	f.mu.Lock()
	if payload.Head > f.head {
		f.head = payload.Head
	}
	f.mu.Unlock()
	// Ack best-effort: lag accounting must not stall replication.
	_ = src.ReplAck(f.name, f.store.ReplicationHead(), epoch)
	return false, nil
}

// applyRecord makes one record durable locally, then feeds the engine.
// Records the store skips as already applied (offset <= local head) are not
// re-fed to the engine: engine state was built from those records already.
func (f *Follower) applyRecord(body []byte, offset uint64) error {
	if offset <= f.store.ReplicationHead() {
		return nil
	}
	if err := f.store.ApplyReplicatedRecord(body, offset); err != nil {
		return err
	}
	if f.applier != nil {
		ops, err := storage.DecodeRecord(body)
		if err != nil {
			return err
		}
		if err := f.applier.ApplyReplicated(ops); err != nil {
			return err
		}
	}
	f.setApplied(offset)
	return nil
}

func (f *Follower) setApplied(offset uint64) {
	f.mu.Lock()
	f.applied = offset
	f.mu.Unlock()
}

// bootstrap replaces the local state with a snapshot export from the
// primary: the store resets (durably) to the snapshot positioned at its
// head, the engine rebuilds, and the primary epoch is adopted and
// persisted.
func (f *Follower) bootstrap() error {
	src := f.source()
	payload, err := src.ReplSnapshot()
	if err != nil {
		return err
	}
	if payload == nil {
		return errors.New("replication: empty snapshot response")
	}
	ops, err := SnapFromWire(payload.Snap)
	if err != nil {
		return err
	}
	if err := f.store.ResetFromExport(ops, payload.Head); err != nil {
		return err
	}
	if f.applier != nil {
		if err := f.applier.ResetReplicated(ops); err != nil {
			return err
		}
	}
	f.mu.Lock()
	f.epoch = payload.Epoch
	f.head = payload.Head
	f.applied = payload.Head
	f.mu.Unlock()
	if err := f.store.SaveState(primaryEpochName, []byte(strconv.FormatUint(payload.Epoch, 10)+"\n")); err != nil {
		return fmt.Errorf("replication: persist primary epoch: %w", err)
	}
	_ = src.ReplAck(f.name, payload.Head, payload.Epoch)
	return nil
}
