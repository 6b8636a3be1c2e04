package tenant

import (
	"testing"
	"time"

	"nnexus/internal/clock"
)

// newTestRegistry builds a registry whose buckets refill only as the test
// advances the returned clock.
func newTestRegistry(t *testing.T, cfg Config) (*Registry, *clock.Manual) {
	clk := clock.NewManual(time.Unix(1000, 0))
	t.Cleanup(clock.Install(clk))
	return NewRegistry(cfg), clk
}

func TestAllowUnlimited(t *testing.T) {
	r, _ := newTestRegistry(t, Config{})
	for i := 0; i < 1000; i++ {
		if err := r.Allow("anything"); err != nil {
			t.Fatalf("unlimited corpus rejected: %v", err)
		}
	}
}

func TestAllowBurstThenRefill(t *testing.T) {
	r, clk := newTestRegistry(t, Config{Corpora: map[string]*Policy{
		"hot": {RatePerSec: 10, Burst: 5},
	}})
	for i := 0; i < 5; i++ {
		if err := r.Allow("hot"); err != nil {
			t.Fatalf("request %d inside burst rejected: %v", i, err)
		}
	}
	err := r.Allow("hot")
	if err == nil {
		t.Fatal("request past burst admitted")
	}
	rl, ok := err.(*RateLimitedError)
	if !ok {
		t.Fatalf("want *RateLimitedError, got %T", err)
	}
	if rl.Corpus != "hot" || rl.RetryAfter <= 0 {
		t.Fatalf("bad error detail: %+v", rl)
	}
	if !IsRateLimited(err) {
		t.Fatal("IsRateLimited false for RateLimitedError")
	}
	// 10 tokens/s: 100ms refills one token.
	clk.Advance(100 * time.Millisecond)
	if err := r.Allow("hot"); err != nil {
		t.Fatalf("refilled token rejected: %v", err)
	}
	if err := r.Allow("hot"); err == nil {
		t.Fatal("second request on one refilled token admitted")
	}
}

func TestAllowIsolatesCorpora(t *testing.T) {
	r, _ := newTestRegistry(t, Config{Corpora: map[string]*Policy{
		"hot":  {RatePerSec: 1, Burst: 1},
		"cold": {RatePerSec: 1000, Burst: 1000},
	}})
	if err := r.Allow("hot"); err != nil {
		t.Fatalf("first hot request rejected: %v", err)
	}
	if err := r.Allow("hot"); err == nil {
		t.Fatal("hot corpus not limited")
	}
	// The bystander is unaffected by the hot corpus's saturation.
	for i := 0; i < 100; i++ {
		if err := r.Allow("cold"); err != nil {
			t.Fatalf("bystander request %d rejected: %v", i, err)
		}
	}
}

func TestDefaultPolicyPerCorpusBuckets(t *testing.T) {
	r, _ := newTestRegistry(t, Config{Default: &Policy{RatePerSec: 1, Burst: 2}})
	// Two unknown corpora each get their own default-policy bucket.
	for i := 0; i < 2; i++ {
		if err := r.Allow("a"); err != nil {
			t.Fatalf("a request %d rejected: %v", i, err)
		}
	}
	if err := r.Allow("a"); err == nil {
		t.Fatal("a past default burst admitted")
	}
	if err := r.Allow("b"); err != nil {
		t.Fatalf("b starved by a's bucket: %v", err)
	}
}

func TestReloadPreservesFill(t *testing.T) {
	r, clk := newTestRegistry(t, Config{Corpora: map[string]*Policy{
		"hot": {RatePerSec: 1, Burst: 10},
	}})
	for i := 0; i < 10; i++ {
		if err := r.Allow("hot"); err != nil {
			t.Fatalf("request %d rejected: %v", i, err)
		}
	}
	if err := r.Allow("hot"); err == nil {
		t.Fatal("saturated bucket admitted")
	}
	// Reload with the same policy: the drained bucket must NOT refill.
	r.Reload(Config{Corpora: map[string]*Policy{
		"hot": {RatePerSec: 1, Burst: 10},
	}})
	if err := r.Allow("hot"); err == nil {
		t.Fatal("reload granted a saturated tenant a free burst")
	}
	// But refill still works normally after the reload.
	clk.Advance(2 * time.Second)
	if err := r.Allow("hot"); err != nil {
		t.Fatalf("post-reload refill broken: %v", err)
	}
}

func TestReloadChangesLimits(t *testing.T) {
	r, _ := newTestRegistry(t, Config{Corpora: map[string]*Policy{
		"hot": {RatePerSec: 1, Burst: 1},
	}})
	if err := r.Allow("hot"); err != nil {
		t.Fatalf("first request rejected: %v", err)
	}
	if err := r.Allow("hot"); err == nil {
		t.Fatal("limited corpus admitted past burst")
	}
	// Dropping the policy lifts the limit entirely.
	r.Reload(Config{})
	if err := r.Allow("hot"); err != nil {
		t.Fatalf("unlimited after reload, still rejected: %v", err)
	}
}

func TestCheckQuota(t *testing.T) {
	r, _ := newTestRegistry(t, Config{Corpora: map[string]*Policy{
		"small": {MaxEntries: 2, MaxBytes: 100},
	}})
	if err := r.CheckQuota("small", 0, 0, 1, 10); err != nil {
		t.Fatalf("inside quota rejected: %v", err)
	}
	err := r.CheckQuota("small", 2, 0, 1, 10)
	if err == nil {
		t.Fatal("entry quota not enforced")
	}
	qe, ok := err.(*QuotaExceededError)
	if !ok || qe.Kind != "entries" {
		t.Fatalf("want entries QuotaExceededError, got %#v", err)
	}
	if !IsQuotaExceeded(err) {
		t.Fatal("IsQuotaExceeded false for QuotaExceededError")
	}
	err = r.CheckQuota("small", 1, 95, 1, 10)
	if err == nil {
		t.Fatal("byte quota not enforced")
	}
	if qe, ok := err.(*QuotaExceededError); !ok || qe.Kind != "bytes" {
		t.Fatalf("want bytes QuotaExceededError, got %#v", err)
	}
	// Unlimited corpus never rejects.
	if err := r.CheckQuota("other", 1<<40, 1<<40, 1, 1); err != nil {
		t.Fatalf("unlimited corpus quota-rejected: %v", err)
	}
}

func TestLoadConfigJSON(t *testing.T) {
	cfg, err := Load([]byte(`{
		"default": {"ratePerSec": 100},
		"corpora": {
			"planetmath": {"ratePerSec": 500, "burst": 600, "maxEntries": 1000},
			"wikipedia": {"targets": ["wikipedia", "planetmath"]}
		}
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Default == nil || cfg.Default.RatePerSec != 100 {
		t.Fatalf("default policy not parsed: %+v", cfg.Default)
	}
	if p := cfg.Corpora["planetmath"]; p == nil || p.Burst != 600 || p.MaxEntries != 1000 {
		t.Fatalf("planetmath policy not parsed: %+v", cfg.Corpora["planetmath"])
	}
	r := NewRegistry(cfg)
	if got := r.Targets("wikipedia"); len(got) != 2 || got[0] != "wikipedia" || got[1] != "planetmath" {
		t.Fatalf("targets not resolved: %v", got)
	}
	if _, err := Load([]byte(`{nope`)); err == nil {
		t.Fatal("bad JSON accepted")
	}
}

func TestNormalizesEmptyCorpus(t *testing.T) {
	r, _ := newTestRegistry(t, Config{Corpora: map[string]*Policy{
		"default": {RatePerSec: 1, Burst: 1},
	}})
	// "" resolves to the default corpus namespace.
	if err := r.Allow(""); err != nil {
		t.Fatalf("first default-corpus request rejected: %v", err)
	}
	if err := r.Allow(""); err == nil {
		t.Fatal("default corpus limit not applied to empty corpus ID")
	}
}
