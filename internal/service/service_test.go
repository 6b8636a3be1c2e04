package service

import (
	"errors"
	"fmt"
	"testing"

	"nnexus/internal/classification"
	"nnexus/internal/core"
	"nnexus/internal/corpus"
	"nnexus/internal/render"
	"nnexus/internal/replication"
	"nnexus/internal/tenant"
	"nnexus/internal/wire"
)

func newEngine(t *testing.T) *core.Engine {
	t.Helper()
	e, err := core.NewEngine(core.Config{Scheme: classification.SampleMSC(10)})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// The serving layers put every request through Do or Execute; a read must
// not pay for that with an allocation, tenants attached or not.
func TestReadReachesExecuteWithoutAllocating(t *testing.T) {
	engine := newEngine(t)
	for name, tenants := range map[string]*tenant.Registry{
		"no tenants":      nil,
		"unlimited":       tenant.NewRegistry(tenant.Config{}),
		"limited, in-use": tenant.NewRegistry(tenant.Config{Default: &tenant.Policy{RatePerSec: 1e9, MaxEntries: 5}}),
	} {
		s := New(engine)
		s.Tenants = tenants
		ran := 0
		req := &wire.Request{Method: wire.MethodLinkText, Corpus: "notes"}
		allocs := testing.AllocsPerRun(200, func() {
			if err := s.Do(req, func() error {
				ran++
				return nil
			}); err != nil {
				t.Fatal(err)
			}
		})
		// Counting the admission resolves a labeled child, which the
		// telemetry registry allocates a handle for.
		if max := map[bool]float64{false: 0, true: 1}[tenants != nil]; allocs > max {
			t.Errorf("%s: a read allocates %.0f times on its way to execute, want at most %.0f", name, allocs, max)
		}
		if ran == 0 {
			t.Errorf("%s: exec never ran", name)
		}
	}
}

// Stage order: the bucket is charged before the quota is consulted, a
// rejected request never executes, and a mutation that applied with no
// primary to gather its quorum from reports quorumUnavailable.
func TestStageOrder(t *testing.T) {
	engine := newEngine(t)
	s := New(engine)
	s.Tenants = tenant.NewRegistry(tenant.Config{Default: &tenant.Policy{RatePerSec: 0.001, Burst: 1, MaxEntries: 1}})
	write := &wire.Request{Method: wire.MethodAddEntries, Entries: []*corpus.Entry{{Title: "a"}, {Title: "b"}}}
	executed := false
	exec := func() error { executed = true; return nil }

	if err := s.Do(write, exec); !tenant.IsQuotaExceeded(err) || executed {
		t.Fatalf("two new entries into room for one: err %v, executed %v; want quotaExceeded before execution", err, executed)
	}
	if err := s.Do(write, exec); !tenant.IsRateLimited(err) || executed {
		t.Fatalf("second request on a burst of one: err %v, executed %v; want rateLimited (the refused write spent its token)", err, executed)
	}

	s.Tenants, s.QuorumAcks = nil, 1
	err := s.Do(write, exec)
	if !errors.Is(err, replication.ErrQuorumUnavailable) || !executed {
		t.Fatalf("quorum of one with no primary: err %v, executed %v; want quorumUnavailable after execution", err, executed)
	}
	executed = false
	if err := s.Do(&wire.Request{Method: wire.MethodLinkText}, exec); err != nil || !executed {
		t.Fatalf("a read waits for no quorum: err %v, executed %v", err, executed)
	}
}

// A link request whose options do not parse is refused before it is
// charged, whichever link method it is: the valid request after it gets the
// bucket's one token.
func TestMalformedLinkSpendsNoToken(t *testing.T) {
	s := New(newEngine(t))
	s.Tenants = tenant.NewRegistry(tenant.Config{Default: &tenant.Policy{RatePerSec: 0.001, Burst: 1}})
	for _, req := range []*wire.Request{
		{Method: wire.MethodLinkText, Mode: "psychic"},
		{Method: wire.MethodLinkEntry, Format: "pdf"},
		{Method: wire.MethodLinkBatch, Mode: "psychic"},
	} {
		var invalid *InvalidError
		if err := s.Admit(req); !errors.As(err, &invalid) {
			t.Errorf("%s mode %q format %q: %v, want an *InvalidError", req.Method, req.Mode, req.Format, err)
		}
	}
	if err := s.Admit(&wire.Request{Method: wire.MethodLinkText}); err != nil {
		t.Errorf("the valid request after the malformed ones: %v", err)
	}
}

// The in-flight bound is one add-then-check counter: MaxActive slots and no
// more, control traffic outside it, and no bound at all touches no counter.
func TestInFlightBound(t *testing.T) {
	s := New(newEngine(t))
	for i := 0; i < 100; i++ {
		if err := s.Enter(wire.MethodLinkText); err != nil {
			t.Fatalf("unbounded: request %d refused: %v", i, err)
		}
	}
	if n := s.active.Load(); n != 0 {
		t.Fatalf("unbounded: %d slots counted, want none", n)
	}

	s.MaxActive = 2
	for i := 0; i < 2; i++ {
		if err := s.Enter(wire.MethodAddEntry); err != nil {
			t.Fatalf("slot %d of 2 refused: %v", i+1, err)
		}
	}
	if err := s.Enter(wire.MethodStats); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("third request on two slots: %v, want ErrOverloaded", err)
	}
	for m, kind := range wire.Methods {
		if kind == wire.KindControl {
			if err := s.Enter(m); err != nil {
				t.Errorf("%s refused with every slot taken: %v", m, err)
			}
			s.Leave(m)
		}
	}
	s.Leave(wire.MethodAddEntry)
	if err := s.Enter(wire.MethodLinkText); err != nil {
		t.Fatalf("a slot given back was not reusable: %v", err)
	}
	if n := s.active.Load(); n != 2 {
		t.Errorf("%d slots counted, want 2", n)
	}
}

// Code names each typed pipeline error's wire code and leader hint; an
// engine error has none.
func TestCode(t *testing.T) {
	s := New(newEngine(t))
	for _, c := range []struct {
		err          error
		code, leader string
	}{
		{ErrOverloaded, wire.CodeOverloaded, ""},
		{&tenant.RateLimitedError{Corpus: "c"}, wire.CodeRateLimited, ""},
		{&tenant.QuotaExceededError{Corpus: "c"}, wire.CodeQuotaExceeded, ""},
		{&replication.NotPrimaryError{Leader: "10.0.0.1:7070"}, wire.CodeNotPrimary, "10.0.0.1:7070"},
		{fmt.Errorf("write: %w", replication.ErrQuorumUnavailable), wire.CodeQuorumUnavailable, ""},
		{fmt.Errorf("lead: %w", replication.ErrStaleEpoch), wire.CodeStaleEpoch, ""},
		{errors.New("core: unknown domain"), "", ""},
	} {
		if code, leader := s.Code(c.err); code != c.code || leader != c.leader {
			t.Errorf("Code(%v) = %q, %q; want %q, %q", c.err, code, leader, c.code, c.leader)
		}
	}
}

func TestParseLinkOptions(t *testing.T) {
	for _, c := range []struct {
		mode, format string
		wantMode     core.Mode
		markdown, ok bool
	}{
		{"", "", core.ModeDefault, false, true},
		{"default", "html", core.ModeDefault, false, true},
		{"Lexical", "MD", core.ModeLexical, true, true},
		{"steered", "markdown", core.ModeSteered, true, true},
		{"steered+policies", "", core.ModeSteeredPolicies, false, true},
		{"full", "", core.ModeSteeredPolicies, false, true},
		{"fancy", "", 0, false, false},
		{"", "pdf", 0, false, false},
	} {
		opts, err := ParseLinkOptions(c.mode, c.format)
		if (err == nil) != c.ok {
			t.Errorf("ParseLinkOptions(%q, %q): err %v, want ok=%v", c.mode, c.format, err, c.ok)
			continue
		}
		if !c.ok {
			continue
		}
		if opts.Mode != c.wantMode || (opts.Format != nil && *opts.Format == render.Markdown) != c.markdown {
			t.Errorf("ParseLinkOptions(%q, %q) = mode %v format %v", c.mode, c.format, opts.Mode, opts.Format)
		}
	}
}
