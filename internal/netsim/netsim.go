// Package netsim provides a minimal in-process network simulator: a TCP
// proxy adding one-way propagation delay to each direction of every
// forwarded connection. Unlike a sleep-then-forward loop, chunks in flight
// overlap their delays — pipelined traffic pays the propagation delay once
// per window while stop-and-wait traffic pays it once per call — so the
// proxy models a real wire rather than a store-and-forward hop. Benchmarks
// and the cluster experiments use it to show what request pipelining and
// replicas buy on links where the round trip, not the CPU, is
// the bottleneck.
//
// Beyond delay, a Link supports fault injection for chaos tests: one-way
// partitions (traffic in the blocked direction stalls — like a TCP wire
// that stopped delivering — and flows again after heal, preserving stream
// integrity) and connection drops (every live proxied connection is closed
// at once, as if a middlebox reset them). Replication chaos tests use these
// to cut followers off from their primary and verify convergence after
// heal.
package netsim

import (
	"net"
	"sync"
	"time"
)

// gate is a direction's flow control: open lets chunks through, blocked
// stalls them until reopened (or the link closes).
type gate struct {
	mu   sync.Mutex
	open chan struct{} // closed-over channel: closed = traffic may flow
}

func newGate() *gate {
	g := &gate{open: make(chan struct{})}
	close(g.open)
	return g
}

func (g *gate) set(blocked bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	select {
	case <-g.open: // currently open
		if blocked {
			g.open = make(chan struct{})
		}
	default: // currently blocked
		if !blocked {
			close(g.open)
		}
	}
}

// wait blocks until the gate opens or cancel fires; it reports whether the
// gate opened.
func (g *gate) wait(cancel <-chan struct{}) bool {
	g.mu.Lock()
	ch := g.open
	g.mu.Unlock()
	select {
	case <-ch:
		return true
	case <-cancel:
		return false
	}
}

// Link is a controllable simulated network segment in front of one backend:
// a listening proxy whose two directions can be independently partitioned,
// and whose live connections can be dropped on demand.
type Link struct {
	ln        net.Listener
	backend   string
	delay     time.Duration
	toBackend *gate // client→backend direction
	toClient  *gate // backend→client direction
	closedCh  chan struct{}

	mu    sync.Mutex
	conns map[net.Conn]struct{}
	done  bool
}

// NewLink starts a proxy on a fresh loopback port forwarding to backend,
// delaying each direction by delay. Fault injection starts disabled: both
// directions flow.
func NewLink(backend string, delay time.Duration) (*Link, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	l := &Link{
		ln:        ln,
		backend:   backend,
		delay:     delay,
		toBackend: newGate(),
		toClient:  newGate(),
		closedCh:  make(chan struct{}),
		conns:     make(map[net.Conn]struct{}),
	}
	go l.acceptLoop()
	return l, nil
}

// Addr returns the proxy's listen address; dial this instead of the
// backend.
func (l *Link) Addr() string { return l.ln.Addr().String() }

// PartitionToBackend blocks (or with false, unblocks) the client→backend
// direction: requests stall in flight while responses still flow — a
// one-way partition.
func (l *Link) PartitionToBackend(blocked bool) { l.toBackend.set(blocked) }

// PartitionToClient blocks (or unblocks) the backend→client direction:
// responses stall while requests still arrive.
func (l *Link) PartitionToClient(blocked bool) { l.toClient.set(blocked) }

// Partition blocks (or unblocks) both directions at once — a full
// partition of this link.
func (l *Link) Partition(blocked bool) {
	l.toBackend.set(blocked)
	l.toClient.set(blocked)
}

// Heal reopens both directions; stalled traffic resumes where it stopped.
func (l *Link) Heal() { l.Partition(false) }

// Stall partitions both directions for d and then heals from a background
// timer — a transient full stall of the segment (a GC'd middlebox, a
// rerouting blip) that preserves stream integrity. It returns immediately;
// scripted load-test events use it to stall a node mid-run.
func (l *Link) Stall(d time.Duration) {
	l.Partition(true)
	time.AfterFunc(d, l.Heal)
}

// DropConnections closes every live proxied connection — both sides see an
// abrupt connection failure — and returns how many were dropped. The
// listener keeps accepting, so clients may reconnect immediately.
func (l *Link) DropConnections() int {
	l.mu.Lock()
	cs := make([]net.Conn, 0, len(l.conns))
	for c := range l.conns {
		cs = append(cs, c)
	}
	l.conns = make(map[net.Conn]struct{})
	l.mu.Unlock()
	for _, c := range cs {
		c.Close()
	}
	return len(cs)
}

// ActiveConns returns how many proxied sockets are currently tracked (two
// per proxied connection: the client side and the backend side).
func (l *Link) ActiveConns() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.conns)
}

// Close stops the listener, releases stalled traffic, and closes every
// live proxied connection.
func (l *Link) Close() {
	l.mu.Lock()
	if l.done {
		l.mu.Unlock()
		return
	}
	l.done = true
	cs := make([]net.Conn, 0, len(l.conns))
	for c := range l.conns {
		cs = append(cs, c)
	}
	l.conns = nil
	l.mu.Unlock()
	close(l.closedCh)
	l.ln.Close()
	for _, c := range cs {
		c.Close()
	}
}

// track registers a proxied socket for DropConnections/Close; it refuses
// (closing c) when the link is already closed.
func (l *Link) track(c net.Conn) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.done {
		c.Close()
		return false
	}
	l.conns[c] = struct{}{}
	return true
}

func (l *Link) untrack(c net.Conn) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.conns != nil {
		delete(l.conns, c)
	}
}

func (l *Link) acceptLoop() {
	for {
		cl, err := l.ln.Accept()
		if err != nil {
			return
		}
		if !l.track(cl) {
			continue
		}
		go func() {
			srv, err := net.DialTimeout("tcp", l.backend, 5*time.Second)
			if err != nil {
				l.untrack(cl)
				cl.Close()
				return
			}
			if !l.track(srv) {
				l.untrack(cl)
				cl.Close()
				return
			}
			var wg sync.WaitGroup
			wg.Add(2)
			go l.pump(srv, cl, l.toBackend, &wg)
			go l.pump(cl, srv, l.toClient, &wg)
			wg.Wait()
			l.untrack(cl)
			l.untrack(srv)
		}()
	}
}

// pump forwards src→dst, releasing each chunk delay after it was read and
// only while the direction's gate is open. Reading continues while earlier
// chunks wait out their delay, so concurrent chunks share the wire time
// instead of queuing behind each other's sleeps; a blocked gate stalls
// delivery without discarding bytes, so the stream stays intact across a
// partition-and-heal cycle.
func (l *Link) pump(dst, src net.Conn, g *gate, wg *sync.WaitGroup) {
	defer wg.Done()
	type chunk struct {
		data []byte
		due  time.Time
	}
	ch := make(chan chunk, 4096)
	go func() {
		defer close(ch)
		buf := make([]byte, 32<<10)
		for {
			n, err := src.Read(buf)
			if n > 0 {
				data := make([]byte, n)
				copy(data, buf[:n])
				ch <- chunk{data, time.Now().Add(l.delay)}
			}
			if err != nil {
				return
			}
		}
	}()
	for c := range ch {
		time.Sleep(time.Until(c.due))
		if !g.wait(l.closedCh) {
			break
		}
		if _, err := dst.Write(c.data); err != nil {
			break
		}
	}
	// Propagate EOF (or a write failure) and unblock the reader.
	dst.Close()
	src.Close()
	for range ch {
	}
}
