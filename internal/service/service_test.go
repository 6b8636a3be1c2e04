package service

import (
	"errors"
	"testing"

	"nnexus/internal/classification"
	"nnexus/internal/core"
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
		allocs := testing.AllocsPerRun(200, func() {
			if err := s.Do(Request{Method: wire.MethodLinkText, Corpus: "notes"}, func() error {
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
	write := Request{Method: wire.MethodAddEntries, Writes: []Write{{Size: 1}, {Size: 1}}}
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
	if err := s.Do(Request{Method: wire.MethodLinkText}, exec); err != nil || !executed {
		t.Fatalf("a read waits for no quorum: err %v, executed %v", err, executed)
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
