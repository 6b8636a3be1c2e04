package replication

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"nnexus/internal/storage"
	"nnexus/internal/wire"
)

// localSource adapts a Primary into the follower's Source interface without
// a network: the in-process equivalent of the wire exchanges.
type localSource struct{ p *Primary }

func (l localSource) ReplSubscribe(from, epoch uint64, max, waitMillis int, follower string) (*wire.ReplPayload, error) {
	return l.p.Subscribe(from, epoch, max, time.Duration(waitMillis)*time.Millisecond)
}
func (l localSource) ReplSnapshot() (*wire.ReplPayload, error) { return l.p.Snapshot() }
func (l localSource) ReplAck(follower string, offset, epoch uint64) error {
	l.p.Ack(follower, offset)
	return nil
}

func newPrimary(t *testing.T, opts ...storage.Option) (*storage.Store, *Primary) {
	t.Helper()
	opts = append([]storage.Option{storage.WithReplication()}, opts...)
	st, err := storage.Open(t.TempDir(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	p, err := NewPrimary(st)
	if err != nil {
		t.Fatal(err)
	}
	return st, p
}

func newTestFollower(t *testing.T, p *Primary, opts ...FollowerOption) (*storage.Store, *Follower) {
	t.Helper()
	st, err := storage.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	opts = append([]FollowerOption{
		WithFollowerName("f1"),
		WithFollowerWait(50 * time.Millisecond),
	}, opts...)
	f, err := NewFollower(st, nil, localSource{p}, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Stop)
	return st, f
}

// followerStatus is the part of its node's Status a follower reports.
func followerStatus(f *Follower) Status {
	var st Status
	f.status(&st)
	return st
}

func waitCaughtUp(t *testing.T, f *Follower, head uint64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		st := followerStatus(f)
		if st.Applied == head && st.Synced {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("follower never caught up to %d: %+v", head, followerStatus(f))
}

func sameState(t *testing.T, a, b *storage.Store, label string) {
	t.Helper()
	aOps, aHead, _, err := a.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	bOps, bHead, _, err := b.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	if aHead != bHead {
		t.Errorf("%s: heads differ: %d vs %d", label, aHead, bHead)
	}
	if len(aOps) != len(bOps) {
		t.Fatalf("%s: %d ops vs %d ops", label, len(aOps), len(bOps))
	}
	for i := range aOps {
		x, y := aOps[i], bOps[i]
		if x.Table != y.Table || x.Key != y.Key || string(x.Value) != string(y.Value) {
			t.Errorf("%s: op %d differs: %v vs %v", label, i, x, y)
		}
	}
}

func TestFollowerCatchesUpAndTails(t *testing.T) {
	pst, p := newPrimary(t)
	// History before the follower exists.
	for i := 0; i < 5; i++ {
		if err := pst.Put("t", fmt.Sprintf("pre%d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	fst, f := newTestFollower(t, p)
	if err := f.Start(); err != nil {
		t.Fatal(err)
	}
	waitCaughtUp(t, f, 5)
	sameState(t, fst, pst, "after catch-up")

	// Live tail: writes stream through the long-poll as they happen.
	for i := 0; i < 5; i++ {
		if err := pst.Put("t", fmt.Sprintf("live%d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	waitCaughtUp(t, f, 10)
	sameState(t, fst, pst, "after live tail")

	// The primary saw the follower's acks.
	var ps Status
	p.status(&ps)
	if lag, ok := ps.Followers["f1"]; !ok || lag != 0 {
		t.Errorf("follower lag = %v (present %v), want 0", lag, ok)
	}
}

func TestFollowerBootstrapsPastCompaction(t *testing.T) {
	pst, p := newPrimary(t, storage.WithReplicationRetain(2))
	for i := 0; i < 20; i++ {
		if err := pst.Put("t", fmt.Sprintf("k%d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	// A brand-new follower asks from offset 1, which is far below the
	// retained base: it must take the snapshot path, not an error loop.
	fst, f := newTestFollower(t, p)
	if err := f.Start(); err != nil {
		t.Fatal(err)
	}
	waitCaughtUp(t, f, 20)
	sameState(t, fst, pst, "after snapshot bootstrap")
}

func TestFollowerRebootstrapsOnEpochChange(t *testing.T) {
	pst, p := newPrimary(t)
	for i := 0; i < 3; i++ {
		if err := pst.Put("t", fmt.Sprintf("k%d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	fst, f := newTestFollower(t, p)
	if err := f.Start(); err != nil {
		t.Fatal(err)
	}
	waitCaughtUp(t, f, 3)

	// The primary's history restarts (as after an unclean restart): the
	// epoch bumps and the follower must discard its offsets and re-bootstrap.
	ops, _, _, err := pst.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	if err := pst.ResetFromExport(ops, 3); err != nil {
		t.Fatal(err)
	}
	if err := pst.Put("t", "post-reset", []byte("v")); err != nil {
		t.Fatal(err)
	}
	waitCaughtUp(t, f, 4)
	sameState(t, fst, pst, "after epoch change")
	if got, want := followerStatus(f).Epoch, pst.ReplicationEpoch(); got != want {
		t.Errorf("follower epoch = %d, want %d", got, want)
	}
}

// gatedApplier holds every ApplyReplicated until release closes.
type gatedApplier struct {
	entered chan struct{}
	release chan struct{}
}

func (g gatedApplier) ApplyReplicated([]storage.BatchOp) error {
	g.entered <- struct{}{}
	<-g.release
	return nil
}
func (g gatedApplier) ResetReplicated([]storage.BatchOp) error { return nil }

// TestStatusAppliedWaitsForEngine: the store takes a record before the
// engine does, and a follower reporting an offset must already serve it, so
// Status().Applied (what cluster.WaitCaughtUp and replica routing read)
// follows the engine, not the store.
func TestStatusAppliedWaitsForEngine(t *testing.T) {
	pst, p := newPrimary(t)
	if err := pst.Put("t", "k0", []byte("v")); err != nil {
		t.Fatal(err)
	}
	fst, err := storage.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fst.Close() })
	g := gatedApplier{entered: make(chan struct{}, 1), release: make(chan struct{})}
	f, err := NewFollower(fst, g, localSource{p},
		WithFollowerName("f1"), WithFollowerWait(50*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Stop)
	var once sync.Once
	free := func() { once.Do(func() { close(g.release) }) }
	t.Cleanup(free) // before f.Stop, which waits on the held apply
	if err := f.Start(); err != nil {
		t.Fatal(err)
	}
	waitCaughtUp(t, f, 1) // a snapshot bootstrap: ResetReplicated

	if err := pst.Put("t", "k1", []byte("v")); err != nil {
		t.Fatal(err)
	}
	select {
	case <-g.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("the record never reached the engine")
	}
	if got := fst.ReplicationHead(); got != 2 {
		t.Fatalf("store head = %d while the engine applies, want 2", got)
	}
	if got := followerStatus(f).Applied; got != 1 {
		t.Fatalf("Status().Applied = %d while the engine still applies offset 2, want 1", got)
	}
	free()
	waitCaughtUp(t, f, 2)
}

func TestSubscribeLongPollWakesOnAppend(t *testing.T) {
	pst, p := newPrimary(t)
	done := make(chan *wire.ReplPayload, 1)
	go func() {
		payload, err := p.Subscribe(1, pst.ReplicationEpoch(), 10, 5*time.Second)
		if err != nil {
			done <- nil
			return
		}
		done <- payload
	}()
	time.Sleep(20 * time.Millisecond) // let the subscribe block
	if err := pst.Put("t", "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	select {
	case payload := <-done:
		if payload == nil || len(payload.Records) != 1 || payload.Records[0].Offset != 1 {
			t.Fatalf("woken subscribe = %+v, want 1 record at offset 1", payload)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("subscribe did not wake on append")
	}
}

func TestSubscribeReturnsResetOnEpochMismatch(t *testing.T) {
	pst, p := newPrimary(t)
	if err := pst.Put("t", "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	payload, err := p.Subscribe(2, pst.ReplicationEpoch()+7, 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !payload.Reset {
		t.Error("epoch-mismatched subscribe did not demand a reset")
	}
	// A follower claiming offsets beyond the head diverged: reset too.
	payload, err = p.Subscribe(100, pst.ReplicationEpoch(), 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !payload.Reset {
		t.Error("beyond-head subscribe did not demand a reset")
	}
}

func TestDrainUnblocksSubscribers(t *testing.T) {
	pst, p := newPrimary(t)
	done := make(chan error, 1)
	go func() {
		payload, err := p.Subscribe(1, pst.ReplicationEpoch(), 10, time.Minute)
		if err == nil && payload != nil && len(payload.Records) == 0 {
			done <- nil
		} else {
			done <- fmt.Errorf("payload %+v err %v", payload, err)
		}
	}()
	time.Sleep(20 * time.Millisecond)
	p.Drain()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("drained subscribe: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Drain left the subscriber blocked")
	}
	// Post-drain subscribes return immediately instead of long-polling.
	start := time.Now()
	if _, err := p.Subscribe(1, pst.ReplicationEpoch(), 10, time.Minute); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("post-drain subscribe blocked %v", elapsed)
	}
}

func TestFollowerStatusStaleWhenPrimaryGone(t *testing.T) {
	pst, p := newPrimary(t)
	if err := pst.Put("t", "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	_, f := newTestFollower(t, p)
	if err := f.Start(); err != nil {
		t.Fatal(err)
	}
	waitCaughtUp(t, f, 1)
	if !followerStatus(f).Synced {
		t.Error("synced follower reports stale")
	}
	// Kill the primary store: exchanges start failing and the follower must
	// advertise that its lag figure can no longer be trusted.
	pst.Close()
	deadline := time.Now().Add(5 * time.Second)
	for followerStatus(f).Synced {
		if time.Now().After(deadline) {
			t.Fatal("follower never marked itself stale after losing the primary")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// deadSource fails every exchange at once, as a killed primary's refused
// connections do, and counts the attempts.
type deadSource struct{ calls chan struct{} }

func (d deadSource) ReplSubscribe(uint64, uint64, int, int, string) (*wire.ReplPayload, error) {
	select {
	case d.calls <- struct{}{}:
	default:
	}
	return nil, errors.New("connection refused")
}
func (d deadSource) ReplSnapshot() (*wire.ReplPayload, error) {
	return nil, errors.New("connection refused")
}
func (d deadSource) ReplAck(string, uint64, uint64) error { return errors.New("connection refused") }

// A follower sleeping off a dead primary's failures must reach the new
// leader as soon as Retarget names it: the leader reads a follower's silence
// as its own loss of quorum, and a backoff earned on the old primary can
// outlast the election timeout. The clock here never moves, so the backoff
// never ends by itself: contact can only come from Retarget waking the loop.
func TestRetargetWakesBackoff(t *testing.T) {
	manualClock(t)
	pst, p := newPrimary(t)
	if err := pst.Put("t", "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	st, err := storage.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	dead := deadSource{calls: make(chan struct{}, 1)}
	f, err := NewFollower(st, nil, dead, WithFollowerName("f1"), WithFollowerWait(50*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	// The new leader drains first: the follower's long-poll waits on a
	// clock that never moves.
	t.Cleanup(func() {
		p.Drain()
		f.Stop()
	})
	if err := f.Start(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-dead.calls: // the first exchange failed; the loop is backing off
	case <-time.After(5 * time.Second):
		t.Fatal("follower never tried its source")
	}

	f.Retarget(localSource{p})
	deadline := time.Now().Add(500 * time.Millisecond)
	for f.LastContact().IsZero() {
		if time.Now().After(deadline) {
			t.Fatalf("no contact with the new leader within 500ms of Retarget: %+v", followerStatus(f))
		}
		time.Sleep(2 * time.Millisecond)
	}
}
