// Package tenant implements the multi-tenancy policy layer of the
// multi-corpus linking service (ROADMAP: "NNexus Reloaded"): per-corpus
// token-bucket rate limits and entry-count/byte quotas, enforced at the
// serving layers so one hot tenant cannot starve the rest.
//
// A Registry holds the per-corpus policies of a deployment. Policies are
// loaded from a JSON config file (nnexusd -tenant-config) and can be
// hot-reloaded (SIGHUP) without restarting: Reload swaps the policy table
// while preserving each surviving bucket's fill level, so a reload never
// grants a saturated tenant a free burst.
//
// Enforcement errors are typed so the wire and HTTP layers can answer with
// the retry-safe classes of the PR 2 error contract: a RateLimitedError or
// QuotaExceededError is always raised BEFORE the request executes, so
// clients may retry mechanically (after backoff, or after freeing quota)
// even for mutating methods.
package tenant

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"nnexus/internal/clock"
	"nnexus/internal/corpus"
)

// Policy is one corpus's resource envelope. The zero value means
// "unlimited" for every dimension.
type Policy struct {
	// RatePerSec is the sustained request rate (token-bucket refill rate).
	// 0 disables rate limiting for the corpus.
	RatePerSec float64 `json:"ratePerSec,omitempty"`
	// Burst is the token-bucket capacity; 0 with RatePerSec > 0 defaults to
	// ceil(RatePerSec) so a limited tenant can always make progress.
	Burst float64 `json:"burst,omitempty"`
	// MaxEntries caps the number of entries the corpus may hold. 0 = no cap.
	MaxEntries int64 `json:"maxEntries,omitempty"`
	// MaxBytes caps the total indexed bytes (titles, concepts, bodies) of
	// the corpus. 0 = no cap.
	MaxBytes int64 `json:"maxBytes,omitempty"`
	// Targets is the corpus's default cross-corpus link policy: the ordered
	// target corpora LinkText consults when the request names none. Empty
	// means self-linking.
	Targets []string `json:"targets,omitempty"`
}

// Config is the JSON shape of a tenant-config file:
//
//	{
//	  "default": {"ratePerSec": 100, "burst": 200},
//	  "corpora": {
//	    "planetmath": {"ratePerSec": 500, "maxEntries": 100000},
//	    "wikipedia":  {"targets": ["wikipedia", "planetmath"]}
//	  }
//	}
type Config struct {
	// Default applies to every corpus without an explicit policy. Nil means
	// unknown corpora are unlimited.
	Default *Policy `json:"default,omitempty"`
	// Corpora maps corpus ID → policy.
	Corpora map[string]*Policy `json:"corpora,omitempty"`
}

// RateLimitedError reports a request rejected by a corpus's token bucket.
// The request was NOT executed; it is safe to retry after RetryAfter.
type RateLimitedError struct {
	Corpus     string
	RetryAfter time.Duration
}

func (e *RateLimitedError) Error() string {
	return fmt.Sprintf("tenant: corpus %q rate limited, retry after %s",
		e.Corpus, e.RetryAfter.Round(time.Millisecond))
}

// QuotaExceededError reports a write rejected because it would push a
// corpus past its entry or byte quota. The request was NOT executed; it is
// safe to retry once quota is freed.
type QuotaExceededError struct {
	Corpus string
	Kind   string // "entries" or "bytes"
	Used   int64
	Limit  int64
}

func (e *QuotaExceededError) Error() string {
	return fmt.Sprintf("tenant: corpus %q over its %s quota (%d of %d used)",
		e.Corpus, e.Kind, e.Used, e.Limit)
}

// IsRateLimited reports whether err is (or wraps) a RateLimitedError.
func IsRateLimited(err error) bool {
	var rl *RateLimitedError
	return errors.As(err, &rl)
}

// IsQuotaExceeded reports whether err is (or wraps) a QuotaExceededError.
func IsQuotaExceeded(err error) bool {
	var qe *QuotaExceededError
	return errors.As(err, &qe)
}

// bucket is one corpus's token bucket. Guarded by the registry mutex —
// admission is a handful of float ops, far off any hot loop.
type bucket struct {
	rate   float64 // tokens per second
	burst  float64 // capacity
	tokens float64
	last   time.Time
}

// Registry is a deployment's live tenant-policy table. Safe for concurrent
// use; Reload may race with Allow freely.
type Registry struct {
	mu      sync.Mutex
	cfg     Config
	buckets map[string]*bucket
}

// NewRegistry builds a registry from a config. A zero Config admits
// everything (useful as an "enforcement off" placeholder).
func NewRegistry(cfg Config) *Registry {
	r := &Registry{buckets: make(map[string]*bucket)}
	r.install(cfg)
	return r
}

// Load parses a tenant-config JSON document.
func Load(data []byte) (Config, error) {
	var cfg Config
	if err := json.Unmarshal(data, &cfg); err != nil {
		return Config{}, fmt.Errorf("tenant: parse config: %w", err)
	}
	return cfg, nil
}

// LoadFile reads and parses a tenant-config file.
func LoadFile(path string) (Config, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Config{}, fmt.Errorf("tenant: read config: %w", err)
	}
	return Load(data)
}

// install swaps in a config, carrying over the fill level of every bucket
// whose corpus survives the reload (a reload must not refill a saturated
// tenant's bucket). Callers hold r.mu or have exclusive access.
func (r *Registry) install(cfg Config) {
	old := r.buckets
	r.cfg = cfg
	r.buckets = make(map[string]*bucket, len(cfg.Corpora))
	for name, p := range cfg.Corpora {
		if p == nil || p.RatePerSec <= 0 {
			continue
		}
		b := newBucket(p)
		if prev, ok := old[name]; ok {
			b.tokens = prev.tokens
			if b.tokens > b.burst {
				b.tokens = b.burst
			}
			b.last = prev.last
		}
		r.buckets[name] = b
	}
}

func newBucket(p *Policy) *bucket {
	burst := p.Burst
	if burst <= 0 {
		burst = p.RatePerSec
		if burst < 1 {
			burst = 1
		}
	}
	return &bucket{rate: p.RatePerSec, burst: burst, tokens: burst}
}

// Reload atomically replaces the policy table (SIGHUP hot reload).
func (r *Registry) Reload(cfg Config) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.install(cfg)
}

// ReloadFile re-reads a config file into the registry.
func (r *Registry) ReloadFile(path string) error {
	cfg, err := LoadFile(path)
	if err != nil {
		return err
	}
	r.Reload(cfg)
	return nil
}

// policyFor resolves a corpus's policy: explicit entry, else the default,
// else nil (unlimited). Callers hold r.mu.
func (r *Registry) policyFor(name string) *Policy {
	if p, ok := r.cfg.Corpora[name]; ok {
		return p
	}
	return r.cfg.Default
}

// Policy returns a copy of the effective policy for a corpus (zero Policy
// when unlimited).
func (r *Registry) Policy(name string) Policy {
	name = corpus.CorpusOrDefault(name)
	r.mu.Lock()
	defer r.mu.Unlock()
	if p := r.policyFor(name); p != nil {
		out := *p
		out.Targets = append([]string(nil), p.Targets...)
		return out
	}
	return Policy{}
}

// Targets returns the configured default target corpora for a source
// corpus (nil = self-linking).
func (r *Registry) Targets(name string) []string {
	p := r.Policy(name)
	return p.Targets
}

// Corpora returns the corpus IDs with explicit policies, sorted.
func (r *Registry) Corpora() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, 0, len(r.cfg.Corpora))
	for name := range r.cfg.Corpora {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Allow admits or rejects one request for a corpus against its token
// bucket. Unlimited corpora always pass. The error, when non-nil, is a
// *RateLimitedError; the request must not be executed.
func (r *Registry) Allow(name string) error {
	name = corpus.CorpusOrDefault(name)
	r.mu.Lock()
	defer r.mu.Unlock()
	b, ok := r.buckets[name]
	if !ok {
		// No per-corpus bucket: consult the default policy. Default-policy
		// buckets are instantiated per corpus on first sight so tenants
		// sharing the default still get separate envelopes.
		p := r.policyFor(name)
		if p == nil || p.RatePerSec <= 0 {
			return nil
		}
		b = newBucket(p)
		r.buckets[name] = b
	}
	now := clock.Now()
	if !b.last.IsZero() {
		b.tokens += now.Sub(b.last).Seconds() * b.rate
		if b.tokens > b.burst {
			b.tokens = b.burst
		}
	}
	b.last = now
	if b.tokens >= 1 {
		b.tokens--
		return nil
	}
	wait := time.Duration((1 - b.tokens) / b.rate * float64(time.Second))
	return &RateLimitedError{Corpus: name, RetryAfter: wait}
}

// CheckQuota verifies that a write adding addEntries entries and addBytes
// indexed bytes keeps the corpus inside its quotas, given its current
// usage. The error, when non-nil, is a *QuotaExceededError; the write must
// not be executed.
func (r *Registry) CheckQuota(name string, usedEntries, usedBytes, addEntries, addBytes int64) error {
	name = corpus.CorpusOrDefault(name)
	r.mu.Lock()
	p := r.policyFor(name)
	r.mu.Unlock()
	if p == nil {
		return nil
	}
	if p.MaxEntries > 0 && usedEntries+addEntries > p.MaxEntries {
		return &QuotaExceededError{Corpus: name, Kind: "entries", Used: usedEntries, Limit: p.MaxEntries}
	}
	if p.MaxBytes > 0 && usedBytes+addBytes > p.MaxBytes {
		return &QuotaExceededError{Corpus: name, Kind: "bytes", Used: usedBytes, Limit: p.MaxBytes}
	}
	return nil
}
