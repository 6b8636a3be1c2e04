package client

import (
	"errors"
	"net"
	"strings"
	"testing"
	"time"

	"nnexus/internal/corpus"
	"nnexus/internal/wire"
)

// fakeServer runs handler once per accepted connection, in accept order.
// Handlers run sequentially so scripted multi-connection scenarios are
// deterministic.
func fakeServer(t *testing.T, handlers ...func(conn net.Conn)) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for _, h := range handlers {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			h(conn)
			conn.Close()
		}
	}()
	return ln.Addr().String()
}

// echoOK answers every request with a bare OK response carrying the
// request's seq.
func echoOK(conn net.Conn) {
	dec, enc := wire.NewDecoder(conn), wire.NewEncoder(conn)
	for {
		var req wire.Request
		if err := dec.Decode(&req); err != nil {
			return
		}
		resp := wire.OK(&req)
		resp.Object = 7
		if err := enc.Encode(resp); err != nil {
			return
		}
	}
}

func fastOpts(extra ...Option) []Option {
	opts := []Option{
		WithMaxRetries(4),
		WithBackoff(time.Millisecond, 10*time.Millisecond),
		WithCallTimeout(2 * time.Second),
	}
	return append(opts, extra...)
}

// A desynced response stream must poison the connection: the call fails
// (mispairing is not transiently retryable) but the next call runs on a
// fresh connection instead of reading stale responses forever.
func TestSeqMismatchPoisonsConnection(t *testing.T) {
	addr := fakeServer(t,
		func(conn net.Conn) { // first conn: answers with the wrong seq
			dec, enc := wire.NewDecoder(conn), wire.NewEncoder(conn)
			var req wire.Request
			if err := dec.Decode(&req); err != nil {
				return
			}
			_ = enc.Encode(&wire.Response{Seq: req.Seq + 41, Status: "ok"})
		},
		echoOK, // second conn: healthy
	)
	c, err := Dial(addr, time.Second, fastOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	err = c.Ping()
	if err == nil || !strings.Contains(err.Error(), "desynced") {
		t.Fatalf("mispaired response: %v, want desync error", err)
	}
	// The poisoned connection was torn down; this call reconnects.
	if err := c.Ping(); err != nil {
		t.Fatalf("ping after desync: %v", err)
	}
	if c.Reconnects() != 1 {
		t.Errorf("reconnects = %d, want 1", c.Reconnects())
	}
}

// A connection dropped mid-call is retried transparently for idempotent
// methods.
func TestIdempotentRetriedAcrossConnDrop(t *testing.T) {
	addr := fakeServer(t,
		func(conn net.Conn) { // reads the request, drops the conn
			var req wire.Request
			wire.NewDecoder(conn).Decode(&req)
		},
		echoOK,
	)
	c, err := Dial(addr, time.Second, fastOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Ping(); err != nil {
		t.Fatalf("ping across conn drop: %v", err)
	}
	if c.Retries() == 0 || c.Reconnects() == 0 {
		t.Errorf("retries=%d reconnects=%d, want both > 0", c.Retries(), c.Reconnects())
	}
}

// A mutating method whose connection broke mid-exchange must NOT be
// retried: its fate is unknown and replaying it could double-apply.
func TestMutatingNotRetriedOnConnBreak(t *testing.T) {
	addr := fakeServer(t,
		func(conn net.Conn) { // reads the request, drops the conn
			var req wire.Request
			wire.NewDecoder(conn).Decode(&req)
		},
		echoOK,
	)
	c, err := Dial(addr, time.Second, fastOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.AddEntry(&corpus.Entry{Domain: "d", Title: "x"}); err == nil {
		t.Fatal("addEntry across conn drop succeeded; must fail rather than risk double-apply")
	}
	if c.Retries() != 0 {
		t.Errorf("mutating call was retried %d times", c.Retries())
	}
	// The broken connection was still torn down, so the client heals.
	if err := c.Ping(); err != nil {
		t.Fatalf("ping after failed mutate: %v", err)
	}
}

// A typed overloaded rejection happens before execution, so even mutating
// methods retry it.
func TestOverloadedRetriedForMutatingMethods(t *testing.T) {
	addr := fakeServer(t, func(conn net.Conn) {
		dec, enc := wire.NewDecoder(conn), wire.NewEncoder(conn)
		shedFirst := true
		for {
			var req wire.Request
			if err := dec.Decode(&req); err != nil {
				return
			}
			if shedFirst {
				shedFirst = false
				enc.Encode(wire.ErrCoded(&req, wire.CodeOverloaded, errors.New("overloaded")))
				continue
			}
			resp := wire.OK(&req)
			resp.Object = 42
			if err := enc.Encode(resp); err != nil {
				return
			}
		}
	})
	c, err := Dial(addr, time.Second, fastOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	id, err := c.AddEntry(&corpus.Entry{Domain: "d", Title: "x"})
	if err != nil {
		t.Fatalf("addEntry through shed: %v", err)
	}
	if id != 42 {
		t.Errorf("id = %d, want 42", id)
	}
	if c.Retries() != 1 {
		t.Errorf("retries = %d, want 1", c.Retries())
	}
	if c.Reconnects() != 0 {
		t.Errorf("reconnects = %d, want 0: shed responses keep the conn healthy", c.Reconnects())
	}
}

// An application error (no code) is never retried.
func TestApplicationErrorNotRetried(t *testing.T) {
	addr := fakeServer(t, func(conn net.Conn) {
		dec, enc := wire.NewDecoder(conn), wire.NewEncoder(conn)
		for {
			var req wire.Request
			if err := dec.Decode(&req); err != nil {
				return
			}
			if err := enc.Encode(wire.Err(&req, errors.New("boom"))); err != nil {
				return
			}
		}
	})
	c, err := Dial(addr, time.Second, fastOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	err = c.Ping()
	var se *ServerError
	if !errors.As(err, &se) || se.Message != "boom" {
		t.Fatalf("application error: %v, want ServerError{boom}", err)
	}
	if c.Retries() != 0 {
		t.Errorf("application error retried %d times", c.Retries())
	}
}

// The per-call deadline bounds a hung exchange.
func TestCallDeadlineBoundsHungServer(t *testing.T) {
	addr := fakeServer(t, func(conn net.Conn) {
		var req wire.Request
		wire.NewDecoder(conn).Decode(&req)
		time.Sleep(5 * time.Second) // never answer within the deadline
	})
	c, err := Dial(addr, time.Second,
		WithCallTimeout(100*time.Millisecond), WithMaxRetries(0))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	start := time.Now()
	if err := c.Ping(); err == nil {
		t.Fatal("ping against hung server succeeded")
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Errorf("deadline took %v to fire", d)
	}
}

func TestBackoffJitterBounds(t *testing.T) {
	c := &Client{backoffBase: 10 * time.Millisecond, backoffMax: 80 * time.Millisecond}
	for attempt := 0; attempt < 12; attempt++ {
		cap := c.backoffBase << uint(attempt)
		if cap <= 0 || cap > c.backoffMax {
			cap = c.backoffMax
		}
		for i := 0; i < 50; i++ {
			d := c.backoff(attempt)
			if d <= 0 || d > cap {
				t.Fatalf("backoff(%d) = %v, want in (0, %v]", attempt, d, cap)
			}
		}
	}
}
