package loadgen

import (
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nnexus/internal/classification"
	"nnexus/internal/client"
	"nnexus/internal/core"
	"nnexus/internal/faultinject"
	"nnexus/internal/server"
	"nnexus/internal/service"
)

// TestOpenLoopHealthyRun: against a fast target the harness completes the
// whole schedule, achieves what it offered, and reports no errors.
func TestOpenLoopHealthyRun(t *testing.T) {
	events := Generate(Params{
		Seed:     1,
		Schedule: NewPoisson(2000),
		Duration: 500 * time.Millisecond,
		Keys:     50,
	})
	res, err := Run{
		Events:   events,
		Duration: 500 * time.Millisecond,
		Workers:  8,
		Target:   func(int, Event) error { return nil },
	}.Do()
	if err != nil {
		t.Fatal(err)
	}
	if res.Issued != len(events) || res.Completed != len(events) || res.Unfinished != 0 {
		t.Fatalf("issued %d completed %d unfinished %d, want all %d completed",
			res.Issued, res.Completed, res.Unfinished, len(events))
	}
	if len(res.Errors) != 0 {
		t.Fatalf("unexpected errors: %v", res.Errors)
	}
	if ratio := res.AchievedRatio(); ratio < 0.99 {
		t.Fatalf("achieved ratio %.3f, want ≈1", ratio)
	}
	if res.Intended.Count() != uint64(len(events)) {
		t.Fatalf("intended histogram holds %d samples, want %d", res.Intended.Count(), len(events))
	}
}

// TestOpenLoopSaturationLeavesUnfinished: a target far slower than the
// offered rate with a short drain window must surface as unfinished work
// and a collapsed achieved ratio — not silently stretch the run.
func TestOpenLoopSaturationLeavesUnfinished(t *testing.T) {
	events := Generate(Params{
		Seed:     2,
		Schedule: NewPoisson(1000),
		Duration: 200 * time.Millisecond,
		Keys:     10,
	})
	res, err := Run{
		Events:   events,
		Duration: 200 * time.Millisecond,
		Workers:  1,
		Drain:    150 * time.Millisecond,
		Target: func(int, Event) error {
			time.Sleep(20 * time.Millisecond)
			return nil
		},
	}.Do()
	if err != nil {
		t.Fatal(err)
	}
	if res.Unfinished == 0 {
		t.Fatal("saturated run reported no unfinished requests")
	}
	if ratio := res.AchievedRatio(); ratio >= DefaultMinAchievedRatio {
		t.Fatalf("achieved ratio %.3f under saturation, want < %.2f", ratio, DefaultMinAchievedRatio)
	}
	if res.Completed+res.Unfinished+res.Failed() != res.Issued {
		t.Fatalf("accounting leak: %d completed + %d unfinished + %d errors ≠ %d issued",
			res.Completed, res.Unfinished, res.Failed(), res.Issued)
	}
}

// TestOpenLoopErrorClassification: errors land in the classifier's
// buckets, and classified calls are excluded from the latency record.
func TestOpenLoopErrorClassification(t *testing.T) {
	sentinel := errors.New("shed")
	var n atomic.Int64
	res, err := Run{
		Events:   Generate(Params{Seed: 3, Schedule: NewPoisson(1000), Duration: 100 * time.Millisecond, Keys: 5}),
		Duration: 100 * time.Millisecond,
		Workers:  4,
		Target: func(int, Event) error {
			if n.Add(1)%5 == 0 {
				return sentinel
			}
			return nil
		},
		Classify: func(err error) string {
			if errors.Is(err, sentinel) {
				return "shed"
			}
			return "hard"
		},
	}.Do()
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors["shed"] == 0 || res.Errors["hard"] != 0 {
		t.Fatalf("errors = %v, want only shed entries", res.Errors)
	}
	if res.Intended.Count() != uint64(res.Completed) {
		t.Fatalf("latency samples %d ≠ completed %d", res.Intended.Count(), res.Completed)
	}
}

// TestOpenLoopScriptFires: scripted chaos events fire inside the run at
// (roughly) their offsets, in order.
func TestOpenLoopScriptFires(t *testing.T) {
	var (
		mu    sync.Mutex
		fired []string
	)
	start := time.Now()
	var stormAt time.Duration
	_, err := Run{
		Events:   Generate(Params{Seed: 4, Schedule: NewPoisson(500), Duration: 300 * time.Millisecond, Keys: 5}),
		Duration: 300 * time.Millisecond,
		Workers:  2,
		Target:   func(int, Event) error { return nil },
		Script: []ScriptEvent{
			{At: 250 * time.Millisecond, Name: "kill", Fire: func() {
				mu.Lock()
				fired = append(fired, "kill")
				mu.Unlock()
			}},
			{At: 100 * time.Millisecond, Name: "storm", Fire: func() {
				mu.Lock()
				fired = append(fired, "storm")
				stormAt = time.Since(start)
				mu.Unlock()
			}},
		},
	}.Do()
	if err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(fired) != 2 || fired[0] != "storm" || fired[1] != "kill" {
		t.Fatalf("script fired %v, want [storm kill] in At order", fired)
	}
	if stormAt < 100*time.Millisecond || stormAt > 250*time.Millisecond {
		t.Fatalf("storm fired at %v, want ≈100ms into the run", stormAt)
	}
}

// TestClosedLoopCompletesWithinDuration: against a fast target every
// worker keeps calling until Duration has passed, the latency record holds
// one sample per completed call, and the rate is completions over the
// measured wall time.
func TestClosedLoopCompletesWithinDuration(t *testing.T) {
	const dur = 100 * time.Millisecond
	res, err := Closed{
		Workers:  4,
		Duration: dur,
		Target:   func(int) error { time.Sleep(time.Millisecond); return nil },
	}.Do()
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed < 4 || len(res.Errors) != 0 || res.Issued != res.Completed {
		t.Fatalf("completed %d of %d issued, errors %v; want every call to succeed", res.Completed, res.Issued, res.Errors)
	}
	if res.Duration < dur {
		t.Fatalf("run took %v, shorter than its %v duration", res.Duration, dur)
	}
	if res.Service.Count() != uint64(res.Completed) || res.Intended != res.Service {
		t.Fatalf("latency samples %d ≠ completed %d", res.Service.Count(), res.Completed)
	}
	if want := float64(res.Completed) / res.Duration.Seconds(); res.AchievedRate() != want {
		t.Fatalf("achieved rate %.1f, want %.1f", res.AchievedRate(), want)
	}
}

// TestClosedLoopErrorClassification: failed calls land in the
// classifier's buckets, not in the completions or the latency record.
func TestClosedLoopErrorClassification(t *testing.T) {
	sentinel := errors.New("limited")
	var n atomic.Int64
	res, err := Closed{
		Workers:  3,
		Duration: 50 * time.Millisecond,
		Target: func(int) error {
			time.Sleep(100 * time.Microsecond)
			if n.Add(1)%3 == 0 {
				return sentinel
			}
			return nil
		},
		Classify: func(err error) string {
			if errors.Is(err, sentinel) {
				return "rateLimited"
			}
			return "hard"
		},
	}.Do()
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors["rateLimited"] == 0 || res.Errors["hard"] != 0 {
		t.Fatalf("errors = %v, want only rateLimited entries", res.Errors)
	}
	if res.Issued != res.Completed+res.Errors["rateLimited"] || int64(res.Issued) != n.Load() {
		t.Fatalf("issued %d ≠ %d completed + %d errors (%d calls made)", res.Issued, res.Completed, res.Errors["rateLimited"], n.Load())
	}
	if res.Service.Count() != uint64(res.Completed) {
		t.Fatalf("latency samples %d ≠ completed %d", res.Service.Count(), res.Completed)
	}
}

// TestClosedLoopSlowTargetStopsAfterOneCall: a worker starts no call once
// Duration has passed, so a target slower than the whole duration runs once
// per worker and the run ends about one call after Duration.
func TestClosedLoopSlowTargetStopsAfterOneCall(t *testing.T) {
	const (
		dur     = 50 * time.Millisecond
		call    = 100 * time.Millisecond
		workers = 3
	)
	res, err := Closed{
		Workers:  workers,
		Duration: dur,
		Target:   func(int) error { time.Sleep(call); return nil },
	}.Do()
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != workers {
		t.Fatalf("completed %d calls, want one per worker (%d)", res.Completed, workers)
	}
	if res.Duration < call || res.Duration > dur+call+100*time.Millisecond {
		t.Fatalf("run took %v, want about one %v call past the %v duration", res.Duration, call, dur)
	}
}

// TestOpenLoopChargesStalls is the coordinated-omission contract, proven
// against a live wire server stalled via faultinject: every serving
// connection pays injected latency for a window mid-run, so the arrival
// queue backs up. The naive per-request (service) p99 only ever sees the
// injected delay, but the intended-start p99 must also charge the queueing
// the stall caused — the harness provably does not forgive stalls.
func TestOpenLoopChargesStalls(t *testing.T) {
	scheme := classification.SampleMSC(10)
	engine, err := core.NewEngine(core.Config{Scheme: scheme})
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(service.New(engine), nil)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fl := faultinject.WrapListener(ln)
	var (
		connMu sync.Mutex
		conns  []*faultinject.Conn
	)
	fl.OnAccept(func(c *faultinject.Conn) {
		connMu.Lock()
		conns = append(conns, c)
		connMu.Unlock()
	})
	addr, err := srv.Serve(fl)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	const workers = 4
	clients := make([]*client.Client, workers)
	for i := range clients {
		cl, err := client.Dial(addr, time.Second,
			client.WithPipelineWindow(1),
			client.WithMaxRetries(0),
			client.WithCallTimeout(10*time.Second))
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		if err := cl.Ping(); err != nil {
			t.Fatal(err)
		}
		clients[i] = cl
	}

	const (
		duration = 1200 * time.Millisecond
		stall    = 60 * time.Millisecond // per Read/Write during the window
	)
	setStall := func(d time.Duration) {
		connMu.Lock()
		for _, c := range conns {
			c.SetLatency(d)
		}
		connMu.Unlock()
	}
	res, err := Run{
		Events:   Generate(Params{Seed: 5, Schedule: NewPoisson(200), Duration: duration, Keys: 1}),
		Duration: duration,
		Workers:  workers,
		Drain:    20 * time.Second,
		Target: func(w int, _ Event) error {
			return clients[w].Ping()
		},
		Script: []ScriptEvent{
			{At: 300 * time.Millisecond, Name: "stall", Fire: func() { setStall(stall) }},
			{At: 800 * time.Millisecond, Name: "heal", Fire: func() { setStall(0) }},
		},
	}.Do()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Errors) != 0 {
		t.Fatalf("unexpected errors: %v", res.Errors)
	}
	if res.Unfinished != 0 {
		t.Fatalf("%d requests unfinished; drain window too small for the stall", res.Unfinished)
	}

	servP99 := res.Service.Quantile(0.99)
	intP99 := res.Intended.Quantile(0.99)
	// Service latency is bounded by the per-call injected delay (a few
	// Read/Write hops each paying `stall`); intended latency must also
	// absorb the queue that built at 200 req/s for the 500ms window.
	if intP99 < 2*servP99 {
		t.Fatalf("intended p99 %v not ≫ service p99 %v: the harness forgave the stall (coordinated omission)",
			intP99, servP99)
	}
	if intP99 < 300*time.Millisecond {
		t.Fatalf("intended p99 %v implausibly low for a %v stall window", intP99, 500*time.Millisecond)
	}
	t.Logf("service p99 %v, intended p99 %v (ratio %.1fx)", servP99, intP99, float64(intP99)/float64(servP99))
}
