package client

// Pipelining tests: Seq demultiplexing under out-of-order completion,
// prompt Close during in-flight calls, and fate-aware retry when a
// pipelined connection breaks mid-window (TestChaos*, run under the race
// detector by `make chaos`).

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nnexus/internal/classification"
	"nnexus/internal/core"
	"nnexus/internal/corpus"
	"nnexus/internal/server"
	"nnexus/internal/service"
	"nnexus/internal/wire"
)

func newTestEngine(t *testing.T) *core.Engine {
	t.Helper()
	engine, err := core.NewEngine(core.Config{Scheme: classification.SampleMSC(10)})
	if err != nil {
		t.Fatal(err)
	}
	return engine
}

func serveEngine(t *testing.T, engine *core.Engine) (*server.Server, string) {
	t.Helper()
	srv := server.New(service.New(engine), nil)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return srv, addr
}

// TestCloseUnblocksInFlightCall: Close during a slow call must complete the
// call promptly with the typed ErrClosed instead of leaving it blocked
// until the server deigns to answer (or the call deadline fires).
func TestCloseUnblocksInFlightCall(t *testing.T) {
	addr := fakeServer(t, func(conn net.Conn) {
		var req wire.Request
		wire.NewDecoder(conn).Decode(&req)
		time.Sleep(5 * time.Second) // never answer in test time
	})
	c, err := Dial(addr, time.Second, WithCallTimeout(time.Minute), WithMaxRetries(0))
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- c.Ping() }()
	time.Sleep(50 * time.Millisecond) // let the ping reach the wire
	start := time.Now()
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("in-flight call after Close: %v, want ErrClosed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("in-flight call still blocked 2s after Close")
	}
	if d := time.Since(start); d > time.Second {
		t.Errorf("Close took %v to unblock the call", d)
	}
}

// TestOutOfOrderSeqDemux is a property test of the reader's Seq
// demultiplexer: a server that answers each window of requests in a
// shuffled order must still have every call receive its own response. The
// responses carry distinguishing payloads derived from the requests.
func TestOutOfOrderSeqDemux(t *testing.T) {
	const (
		callers = 8
		rounds  = 25
	)
	addr := fakeServer(t, func(conn net.Conn) {
		dec, enc := wire.NewDecoder(conn), wire.NewEncoder(conn)
		rng := rand.New(rand.NewSource(1))
		for {
			batch := make([]*wire.Request, 0, callers)
			for len(batch) < callers {
				var req wire.Request
				if err := dec.Decode(&req); err != nil {
					return
				}
				batch = append(batch, &req)
			}
			rng.Shuffle(len(batch), func(i, j int) { batch[i], batch[j] = batch[j], batch[i] })
			for _, req := range batch {
				resp := wire.OK(req)
				resp.Entry = &corpus.Entry{ID: req.Object, Title: strconv.FormatInt(req.Object, 10)}
				if err := enc.Encode(resp); err != nil {
					return
				}
			}
		}
	})
	c, err := Dial(addr, time.Second,
		WithPipelineWindow(callers), WithCallTimeout(5*time.Second), WithMaxRetries(0))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(id int64) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				e, err := c.GetEntry(id)
				if err != nil {
					t.Errorf("GetEntry(%d) round %d: %v", id, r, err)
					return
				}
				if e.ID != id || e.Title != strconv.FormatInt(id, 10) {
					t.Errorf("GetEntry(%d) got entry %d (%q): responses mispaired", id, e.ID, e.Title)
					return
				}
			}
		}(int64(i + 1))
	}
	wg.Wait()
	if c.Reconnects() != 0 {
		t.Errorf("reconnects = %d, want 0: demux must not mistake shuffling for desync", c.Reconnects())
	}
}

// breakerProxy forwards bytes between clients and backendAddr, but cuts
// each proxied connection after limit bytes of server→client traffic — a
// connection break landing mid-window, with some responses delivered, some
// requests on the wire unanswered, and some never sent.
func breakerProxy(t *testing.T, backendAddr string, limit int64) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			cl, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer cl.Close()
				srv, err := net.DialTimeout("tcp", backendAddr, time.Second)
				if err != nil {
					return
				}
				defer srv.Close()
				go func() { io.Copy(srv, cl) }()
				io.Copy(cl, io.LimitReader(srv, limit))
				// limit reached (or backend closed): cut both sides.
			}()
		}
	}()
	return ln.Addr().String()
}

// TestChaosPipelinedConnBreakMidWindow pushes idempotent and mutating
// pipelined traffic through a proxy that keeps cutting the connection
// mid-window. The fate contract under test: idempotent calls all succeed
// (retried freely), while a mutating call is retried only when it provably
// never reached the wire — so the number of entries the server holds is
// bounded by [successes, successes+failures]: a double-applied retry would
// exceed it.
func TestChaosPipelinedConnBreakMidWindow(t *testing.T) {
	engine := newTestEngine(t)
	srv, addr := serveEngine(t, engine)
	defer srv.Close()
	proxyAddr := breakerProxy(t, addr, 2500)

	c, err := Dial(proxyAddr, time.Second,
		WithPipelineWindow(8),
		WithMaxRetries(25),
		WithBackoff(time.Millisecond, 20*time.Millisecond),
		WithCallTimeout(2*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.AddDomain(corpus.Domain{
		Name: "planetmath.org", URLTemplate: "http://pm/{id}", Scheme: "msc", Priority: 1,
	}); err != nil {
		t.Fatal(err)
	}

	var (
		wg, pingWg  sync.WaitGroup
		pingFails   atomic.Int64
		addOK       atomic.Int64
		addFail     atomic.Int64
		wrongErrors atomic.Int64
	)
	// Idempotent traffic hammers continuously so breaks always land on
	// in-flight retryable calls; it stops once the mutating work is done.
	stopPings := make(chan struct{})
	for g := 0; g < 4; g++ {
		pingWg.Add(1)
		go func() {
			defer pingWg.Done()
			for {
				select {
				case <-stopPings:
					return
				default:
				}
				if err := c.Ping(); err != nil {
					t.Logf("ping: %v", err)
					pingFails.Add(1)
				}
			}
		}()
	}
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				_, err := c.AddEntry(&corpus.Entry{
					Domain:  "planetmath.org",
					Title:   fmt.Sprintf("concept %d-%d", g, i),
					Classes: []string{"05C10"},
				})
				switch {
				case err == nil:
					addOK.Add(1)
				case errors.Is(err, ErrClosed):
					wrongErrors.Add(1)
				default:
					addFail.Add(1)
				}
			}
		}(g)
	}
	wg.Wait()
	close(stopPings)
	pingWg.Wait()

	if pingFails.Load() != 0 {
		t.Errorf("%d idempotent pings failed; conn breaks must be retried through", pingFails.Load())
	}
	if wrongErrors.Load() != 0 {
		t.Errorf("%d calls failed with ErrClosed on an open client", wrongErrors.Load())
	}
	if c.Reconnects() == 0 || c.Retries() == 0 {
		t.Errorf("reconnects=%d retries=%d, want both > 0: the breaker never fired", c.Reconnects(), c.Retries())
	}
	applied := int64(engine.NumEntries())
	if applied < addOK.Load() || applied > addOK.Load()+addFail.Load() {
		t.Errorf("server holds %d entries for %d acknowledged + %d failed addEntry calls: a sent mutation was retried",
			applied, addOK.Load(), addFail.Load())
	}
	t.Logf("entries=%d addOK=%d addFail=%d retries=%d reconnects=%d",
		applied, addOK.Load(), addFail.Load(), c.Retries(), c.Reconnects())
}
