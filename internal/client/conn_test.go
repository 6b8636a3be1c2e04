package client

// Tests of the connection's write side — callers encode and write their own
// requests — and of responses from a newer server.

import (
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"nnexus/internal/wire"
)

// TestMixedVersionResponseIsRead: an element and an attribute this build
// does not know, as a newer server would send, are skipped.
func TestMixedVersionResponseIsRead(t *testing.T) {
	addr := fakeServer(t, func(conn net.Conn) {
		var req wire.Request
		if wire.NewDecoder(conn).Decode(&req) != nil {
			return
		}
		io.WriteString(conn, `<?xml version="1.0" encoding="UTF-8"?>`+
			`<response seq="1" status="ok" served-by="n2"><trace id="7"><hop/></trace>`+
			`<stats><entries>3</entries><shards>2</shards><concepts>5</concepts></stats></response>`+"\n")
		io.Copy(io.Discard, conn)
	})
	c, err := Dial(addr, time.Second, fastOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	stats, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Entries != 3 || stats.Concepts != 5 {
		t.Errorf("stats = %+v", stats)
	}
}

// TestCallDeadlineBoundsBlockedWrite: a server that stops reading blocks the
// caller inside its own write; the call deadline, armed before the write,
// still ends the call, and the calls queued behind it for the write lock
// fail as not sent.
func TestCallDeadlineBoundsBlockedWrite(t *testing.T) {
	addr := fakeServer(t, func(conn net.Conn) {
		time.Sleep(3 * time.Second) // accept, then never read
	})
	c, err := Dial(addr, time.Second, WithCallTimeout(200*time.Millisecond), WithMaxRetries(0))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	huge := strings.Repeat("x", 16<<20) // more than the socket buffers take
	start := time.Now()
	var wg sync.WaitGroup
	errs := make([]error, 3)
	for i := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[i] = c.LinkText(huge, nil, "", "", "")
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err == nil {
			t.Errorf("call %d against a server that never reads succeeded", i)
		}
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Errorf("deadline took %v to fire", d)
	}
}

// TestRequestsReachTheWireInSeqOrder: concurrent callers each write their
// own request, and the write lock keeps Seq assignment and the write in one
// order.
func TestRequestsReachTheWireInSeqOrder(t *testing.T) {
	const calls = 200
	seqs := make(chan int64, calls)
	addr := fakeServer(t, func(conn net.Conn) {
		dec, enc := wire.NewDecoder(conn), wire.NewEncoder(conn)
		for i := 0; i < calls; i++ {
			var req wire.Request
			if dec.Decode(&req) != nil {
				return
			}
			seqs <- req.Seq
			if enc.Encode(wire.OK(&req)) != nil {
				return
			}
		}
	})
	c, err := Dial(addr, time.Second, fastOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < calls/8; i++ {
				if err := c.Ping(); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(seqs)
	last := int64(0)
	for seq := range seqs {
		if seq <= last {
			t.Fatalf("seq %d arrived after %d", seq, last)
		}
		last = seq
	}
}
