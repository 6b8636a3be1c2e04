// Package service holds the request policy every door to the engine shares.
// The socket server, the HTTP API and in-process callers compose the same
// four stages, so a guarantee holds whichever transport carried the request:
//
//	admit        one token from the corpus's bucket, then the write quota
//	route        a mutation runs only where the replication Node allows
//	execute      the caller's closure: the engine call and the reply
//	acknowledge  a mutation that applied waits for its follower quorum
//
// Each stage fails with a typed error — *tenant.RateLimitedError,
// *tenant.QuotaExceededError, *replication.NotPrimaryError, an error wrapping
// replication.ErrQuorumUnavailable — that each transport maps to its own
// reply; only the last of them means the request executed. Requests are
// named by their wire method whatever carried them: an HTTP route passes the
// method of its XML twin and is treated exactly like it.
package service

import (
	"fmt"
	"strings"
	"time"

	"nnexus/internal/core"
	"nnexus/internal/corpus"
	"nnexus/internal/render"
	"nnexus/internal/replication"
	"nnexus/internal/telemetry"
	"nnexus/internal/tenant"
	"nnexus/internal/wire"
)

// MaxRequestBytes bounds one request document on either transport: the XML
// request on the socket, the JSON body over HTTP.
const MaxRequestBytes = 32 << 20

// DefaultQuorumTimeout bounds how long a quorum-acknowledged write waits for
// its follower confirmations before degrading to ErrQuorumUnavailable.
const DefaultQuorumTimeout = 5 * time.Second

// Service runs requests against one engine under the policy in its exported
// fields, which whoever assembles the node sets before the first request and
// then hands the one value to every door. The zero policy admits everything,
// writes here, and acknowledges locally.
type Service struct {
	engine *core.Engine
	// Tenants, when non-nil, charges every tenant-attributable request to
	// its corpus's token bucket and every write to its corpus's quotas.
	Tenants *tenant.Registry
	// Node is this process's place in its replication group; nil is a single
	// node.
	Node *replication.Node
	// QuorumAcks > 0 holds a mutation's reply until that many followers
	// confirmed its WAL offset durable, for at most QuorumTimeout
	// (0 = DefaultQuorumTimeout).
	QuorumAcks    int
	QuorumTimeout time.Duration

	// Per-tenant attribution: admitted, and rejected at admission by reason.
	admitted, rejected *telemetry.CounterVec
}

// New returns the service of one node. It counts into the engine's registry,
// so one scrape covers a corpus's traffic through any door.
func New(engine *core.Engine) *Service {
	reg := engine.Telemetry()
	return &Service{
		engine: engine,
		admitted: reg.CounterVec("nnexus_tenant_requests_total",
			"Tenant-attributable requests admitted, by corpus.", "corpus"),
		rejected: reg.CounterVec("nnexus_tenant_rejected_total",
			"Requests rejected at admission, by corpus and reason.", "corpus", "reason"),
	}
}

// Engine returns the engine the service fronts; a door executes against it.
func (s *Service) Engine() *core.Engine { return s.engine }

// Request is what the stages need to know of one request.
type Request struct {
	Method string // wire.Method*; an HTTP route passes its wire twin
	// Corpus is the corpus the request names, else its single carried
	// entry's; empty is the engine's default (so pre-tenancy clients count).
	Corpus string
	// Writes lists the entries the request would store. Nil for everything
	// else, which keeps a read free of allocations on its way to execute.
	Writes []Write
}

// Write is one entry a request would store: the ID it replaces (0 = a new
// entry) and its core.EntrySize.
type Write struct{ ID, Size int64 }

// Do runs one request through all four stages.
func (s *Service) Do(req Request, exec func() error) error {
	if err := s.Admit(req); err != nil {
		return err
	}
	return s.Execute(req.Method, exec)
}

// Execute is Do for a request already admitted: the socket server admits in
// its reader loop, before the request takes a pipeline slot or a goroutine,
// and runs the rest from the handler. exec is only called, never kept, so
// the caller's closure stays on its stack.
func (s *Service) Execute(method string, exec func() error) error {
	// A mutation runs only on the primary, whose WAL is the replicated
	// history, and is what a quorum acknowledges.
	if !wire.Mutating(method) {
		return exec()
	}
	if err := s.Node.CheckWritable(); err != nil {
		return err
	}
	if err := exec(); err != nil {
		return err
	}
	return s.acknowledge()
}

// Admit charges the request to its corpus: one token from the bucket, then
// the write quota at current usage. Either rejection comes before the request
// executes, so even a mutation is retry-safe in the load-shedding sense.
// Replication, election and liveness traffic is nobody's and passes untouched.
func (s *Service) Admit(req Request) error {
	if s.Tenants == nil || wire.Methods[req.Method] == wire.KindControl {
		return nil
	}
	name := s.corpus(req.Corpus)
	if err := s.Tenants.Allow(name); err != nil {
		s.rejected.With(name, "rateLimited").Inc()
		return err
	}
	if err := s.CheckQuota(name, req.Writes...); err != nil {
		return err
	}
	s.admitted.With(name).Inc()
	return nil
}

// CheckQuota verifies that storing writes keeps the corpus inside its entry
// and byte quotas at current usage; each write charges by the engine's
// replace-versus-new rule. Admit calls it for a request's own writes, a
// streamed import per entry as they arrive, so it cannot overrun the quota.
func (s *Service) CheckQuota(corpusName string, writes ...Write) error {
	if s.Tenants == nil || len(writes) == 0 {
		return nil
	}
	name := s.corpus(corpusName)
	var addEntries, addBytes int64
	for _, w := range writes {
		n, b := s.engine.WriteCharge(w.ID, name, w.Size)
		addEntries += n
		addBytes += b
	}
	usedEntries, usedBytes := s.engine.CorpusUsage(name)
	err := s.Tenants.CheckQuota(name, usedEntries, usedBytes, addEntries, addBytes)
	if err != nil {
		s.rejected.With(name, "quotaExceeded").Inc()
	}
	return err
}

// corpus resolves a request's corpus name against the engine's default.
func (s *Service) corpus(name string) string {
	if name == "" {
		return s.engine.DefaultCorpus()
	}
	return corpus.CorpusOrDefault(name)
}

// acknowledge holds an applied (and locally durable) mutation until the
// configured number of followers confirmed the current WAL head. Waiting on
// the head observed here is at least as strong as waiting on the write's own
// offset. A nil primary means the node was deposed between applying the
// mutation and gathering the quorum (or quorum acks were configured without
// a replication surface): the write sits in a WAL suffix that fencing may
// truncate, so acking it as a quorum success would break the
// zero-lost-acked-writes guarantee. It degrades to ErrQuorumUnavailable —
// the same answer a drained primary gives — and lets the caller reconcile.
func (s *Service) acknowledge() error {
	if s.QuorumAcks <= 0 {
		return nil
	}
	p := s.Node.CurrentPrimary()
	if p == nil {
		return fmt.Errorf("%w: node lost the primary role before the write could be quorum-acknowledged",
			replication.ErrQuorumUnavailable)
	}
	timeout := s.QuorumTimeout
	if timeout <= 0 {
		timeout = DefaultQuorumTimeout
	}
	return p.WaitQuorum(p.Head(), s.QuorumAcks, timeout)
}

// ParseLinkOptions resolves the mode and format names every door accepts
// (the XML attributes, the JSON fields, the CLI flags) into link options.
func ParseLinkOptions(mode, format string) (core.LinkOptions, error) {
	var opts core.LinkOptions
	switch strings.ToLower(mode) {
	case "", "default":
	case "lexical":
		opts.Mode = core.ModeLexical
	case "steered":
		opts.Mode = core.ModeSteered
	case "steered+policies", "full":
		opts.Mode = core.ModeSteeredPolicies
	default:
		return opts, fmt.Errorf("unknown mode %q", mode)
	}
	switch strings.ToLower(format) {
	case "", "html":
	case "markdown", "md":
		f := render.Markdown
		opts.Format = &f
	default:
		return opts, fmt.Errorf("unknown format %q", format)
	}
	return opts, nil
}

// DefaultTargets gives a free-text link request that names no target corpora
// the ones its source corpus's tenant policy configures (none = self-linking).
func (s *Service) DefaultTargets(opts *core.LinkOptions) {
	if len(opts.TargetCorpora) == 0 && s.Tenants != nil {
		opts.TargetCorpora = s.Tenants.Targets(s.corpus(opts.SourceCorpus))
	}
}
