// Package service holds everything in front of the engine that the doors
// share: the request pipeline and the one table of what each wire method
// does. The socket server, the HTTP API and in-process callers compose the
// same four stages, so a guarantee holds whichever transport carried the
// request:
//
//	shed         one of the node's MaxActive in-flight slots (Enter, Leave)
//	route        a mutation runs only where the replication Node allows
//	execute      the engine call of the request's method (Call)
//	acknowledge  a mutation that applied waits for its follower quorum
//
// Each stage fails with a typed error — ErrOverloaded,
// *replication.NotPrimaryError, an error wrapping
// replication.ErrQuorumUnavailable — whose wire code Code names, and which
// each transport renders as its own reply; only the last of them means the
// request executed. A link request whose mode or format does not parse is
// refused at execute with an *InvalidError (no wire code; HTTP 400).
// Requests are wire requests whatever carried them: an HTTP route decodes
// its path and body into the request of its XML twin and is treated exactly
// like it.
package service

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"nnexus/internal/core"
	"nnexus/internal/replication"
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
// then hands the one value to every door. The zero policy runs everything,
// writes here, and acknowledges locally.
type Service struct {
	engine *core.Engine
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
}

// New returns the service of one node.
func New(engine *core.Engine) *Service { return &Service{engine: engine} }

// Engine returns the engine the service fronts, for what the method table
// does not serve: HTTP's cached rendering, stats body and form, and each
// door's telemetry.
func (s *Service) Engine() *core.Engine { return s.engine }

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
	case errors.As(err, &notPrimary):
		return wire.CodeNotPrimary, notPrimary.Leader
	case errors.Is(err, replication.ErrQuorumUnavailable):
		return wire.CodeQuorumUnavailable, ""
	case errors.Is(err, replication.ErrStaleEpoch):
		return wire.CodeStaleEpoch, s.Node.Status().Leader
	case errors.Is(err, core.ErrFailed):
		return wire.CodeFailed, ""
	}
	return "", ""
}

// Execute runs one request of method through the stages after shed, exec
// being its execute stage. exec is only called, never kept, so the caller's
// closure stays on its stack.
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
