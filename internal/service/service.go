// Package service holds everything in front of the engine that the doors
// share: the request pipeline and the one table of what each wire method
// does. The socket server, the HTTP API and in-process callers compose the
// same five stages, so a guarantee holds whichever transport carried the
// request:
//
//	shed         one of the node's MaxActive in-flight slots (Enter, Leave)
//	admit        the request's link options must parse, then one token from
//	             the corpus's bucket, then the write quota (Admit)
//	route        a mutation runs only where the replication Node allows
//	execute      the engine call of the request's method (Call)
//	acknowledge  a mutation that applied waits for its follower quorum
//
// Each stage fails with a typed error — ErrOverloaded,
// *tenant.RateLimitedError, *tenant.QuotaExceededError,
// *replication.NotPrimaryError, an error wrapping
// replication.ErrQuorumUnavailable — whose wire code Code names, and which
// each transport renders as its own reply; only the last of them means the
// request executed. The order is the same at every door: a link request
// whose mode or format does not parse is refused with an *InvalidError (no
// wire code; HTTP 400) before it is charged, so it spends no token.
// Requests are wire requests whatever carried them: an HTTP route decodes
// its path and body into the request of its XML twin and is treated exactly
// like it.
package service

import (
	"cmp"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"nnexus/internal/core"
	"nnexus/internal/corpus"
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

// ErrOverloaded refuses a request that found the node's MaxActive in-flight
// slots taken. It comes before the request executes, so a client may retry
// even a mutation after backing off.
var ErrOverloaded = errors.New("server overloaded, retry later")

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
	// MaxActive > 0 bounds the requests the node runs at once, whichever
	// door carried them; one over it is refused with ErrOverloaded.
	MaxActive int

	active atomic.Int64 // slots taken by Enter and not yet given back

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

// Engine returns the engine the service fronts, for what the method table
// does not serve: HTTP's cached rendering, stats body and form, and each
// door's telemetry.
func (s *Service) Engine() *core.Engine { return s.engine }

// Write is one entry a request would store: the ID it replaces (0 = a new
// entry), its core.EntrySize, and the corpus it lands in (empty is the
// engine's default), which its quota is charged to.
type Write struct {
	ID, Size int64
	Corpus   string
}

// Enter takes one of the node's MaxActive in-flight slots for a request of
// method, or refuses it with ErrOverloaded. A door that got nil calls Leave
// exactly once when the request is done, panic or not. Replication, election
// and liveness traffic takes no slot and is never refused, so a follower's
// long-poll uses no client capacity and an overloaded primary still hears its
// quorum and its peers.
func (s *Service) Enter(method string) error {
	if s.bounded(method) && s.active.Add(1) > int64(s.MaxActive) {
		s.active.Add(-1)
		return ErrOverloaded
	}
	return nil
}

// Leave gives back the slot Enter took for a request of method.
func (s *Service) Leave(method string) {
	if s.bounded(method) {
		s.active.Add(-1)
	}
}

// bounded says whether a request of method takes an in-flight slot. With no
// bound it is decided before the method is looked up.
func (s *Service) bounded(method string) bool {
	return s.MaxActive > 0 && wire.Methods[method] != wire.KindControl
}

// Code names the wire code of a typed error of the pipeline, and the leader a
// client should turn to where the code has one: notPrimary's, and the
// node's current leader for staleEpoch. An error of the engine's own has no
// code.
func (s *Service) Code(err error) (code, leader string) {
	var notPrimary *replication.NotPrimaryError
	switch {
	case errors.Is(err, ErrOverloaded):
		return wire.CodeOverloaded, ""
	case tenant.IsRateLimited(err):
		return wire.CodeRateLimited, ""
	case tenant.IsQuotaExceeded(err):
		return wire.CodeQuotaExceeded, ""
	case errors.As(err, &notPrimary):
		return wire.CodeNotPrimary, notPrimary.Leader
	case errors.Is(err, replication.ErrQuorumUnavailable):
		return wire.CodeQuorumUnavailable, ""
	case errors.Is(err, replication.ErrStaleEpoch):
		return wire.CodeStaleEpoch, s.Node.Status().Leader
	}
	return "", ""
}

// Do runs one request through the stages after shed, exec being its
// execute stage.
func (s *Service) Do(req *wire.Request, exec func() error) error {
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
// the write quota at current usage, each entry it would store sized and
// charged to the corpus it lands in (its own, else the request's). Every
// rejection comes before the request executes, so even a mutation is
// retry-safe in the load-shedding sense, and a link request whose options do
// not parse is refused before it spends a token. Replication, election and
// liveness traffic is nobody's and passes untouched.
func (s *Service) Admit(req *wire.Request) error {
	if s.Tenants == nil || wire.Methods[req.Method] == wire.KindControl {
		return nil
	}
	if isLink(req.Method) {
		if _, err := ParseLinkOptions(req.Mode, req.Format); err != nil {
			return err
		}
	}
	writes := entryWrites(req)
	name := req.Corpus
	if name == "" && len(writes) > 0 {
		name = writes[0].Corpus
	}
	name = s.corpus(name)
	if err := s.Tenants.Allow(name); err != nil {
		s.rejected.With(name, "rateLimited").Inc()
		return err
	}
	if err := s.CheckQuota(writes...); err != nil {
		return err
	}
	s.admitted.With(name).Inc()
	return nil
}

// entryWrites lists the entries req would store. Nil for everything else,
// which keeps a read free of allocations on its way to execute.
func entryWrites(req *wire.Request) []Write {
	write := func(e *corpus.Entry, id int64) Write {
		return Write{ID: id, Corpus: cmp.Or(e.Corpus, req.Corpus), Size: core.EntrySize(e)}
	}
	switch {
	case req.Method == wire.MethodAddEntries:
		writes := make([]Write, len(req.Entries))
		for i, e := range req.Entries {
			writes[i] = write(e, 0)
		}
		return writes
	case req.Entry == nil:
	case req.Method == wire.MethodAddEntry:
		return []Write{write(req.Entry, 0)}
	case req.Method == wire.MethodUpdateEntry:
		return []Write{write(req.Entry, req.Entry.ID)}
	}
	return nil
}

// CheckQuota verifies that storing writes keeps each corpus they land in
// inside its entry and byte quotas at current usage; each write charges its
// own corpus by the engine's replace-versus-new rule. Admit calls it for a
// request's own writes, a streamed import per entry as they arrive, so it
// cannot overrun the quota.
func (s *Service) CheckQuota(writes ...Write) error {
	if s.Tenants == nil {
		return nil
	}
	type charge struct {
		corpus          string
		entries, nbytes int64
	}
	var charges []charge // in the order the corpora first appear
	for _, w := range writes {
		name := s.corpus(w.Corpus)
		i := 0
		for i < len(charges) && charges[i].corpus != name {
			i++
		}
		if i == len(charges) {
			charges = append(charges, charge{corpus: name})
		}
		n, b := s.engine.WriteCharge(w.ID, name, w.Size)
		charges[i].entries += n
		charges[i].nbytes += b
	}
	for _, c := range charges {
		usedEntries, usedBytes := s.engine.CorpusUsage(c.corpus)
		if err := s.Tenants.CheckQuota(c.corpus, usedEntries, usedBytes, c.entries, c.nbytes); err != nil {
			s.rejected.With(c.corpus, "quotaExceeded").Inc()
			return err
		}
	}
	return nil
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
