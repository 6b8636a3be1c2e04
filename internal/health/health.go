// Package health tracks process liveness and readiness for the serving
// layers. A single State is shared by the daemon, the TCP server, and the
// HTTP API: the daemon marks it ready once storage is open and the engine
// loaded, flips it to draining when a shutdown signal arrives, and the
// HTTP layer answers GET /healthz and GET /readyz from it.
//
// Liveness ("is the process up?") is distinct from readiness ("should a
// load balancer send traffic here?"): a draining process is still live but
// no longer ready, which is exactly what lets an orchestrator stop routing
// new work while in-flight requests finish.
package health

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// State is the shared liveness/readiness record. The zero value is usable:
// not ready, not draining, no checks.
type State struct {
	ready    atomic.Bool
	draining atomic.Bool

	mu     sync.Mutex
	checks []check
	infos  []info
}

type check struct {
	name string
	fn   func() error
}

type info struct {
	name string
	fn   func() any
}

// Component is one named component's readiness detail inside a Report.
type Component struct {
	OK    bool   `json:"ok"`
	Error string `json:"error,omitempty"`
	// Info is the component's detail, a value that marshals to a JSON
	// object (e.g. the replication status).
	Info any `json:"info,omitempty"`
}

// Report is the structured readiness report behind GET /readyz: the overall
// verdict plus per-component detail (each registered check's pass/fail and
// each info provider's attachment, e.g. replication role and lag). The
// status-code contract is the verdict; the body is for operators.
type Report struct {
	Status     string               `json:"status"` // "ready" | "not ready" | "draining"
	Ready      bool                 `json:"ready"`
	Draining   bool                 `json:"draining"`
	Reason     string               `json:"reason,omitempty"`
	Components map[string]Component `json:"components,omitempty"`
}

// NewState returns an empty state (not ready until SetReady(true)).
func NewState() *State { return &State{} }

// SetReady marks the process ready (or not) to receive traffic.
func (s *State) SetReady(ready bool) {
	if s == nil {
		return
	}
	s.ready.Store(ready)
}

// SetDraining marks the process as draining: still live, no longer ready.
func (s *State) SetDraining(draining bool) {
	if s == nil {
		return
	}
	s.draining.Store(draining)
}

// Draining reports whether the process is draining.
func (s *State) Draining() bool {
	return s != nil && s.draining.Load()
}

// AddCheck registers a named readiness probe evaluated on every Ready
// call. A probe returning an error fails readiness with that reason.
func (s *State) AddCheck(name string, fn func() error) {
	if s == nil || fn == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.checks = append(s.checks, check{name: name, fn: fn})
}

// AddInfo registers a named detail provider whose result is attached to the
// component of that name in every Report — purely informational (it cannot
// fail readiness), e.g. replication role, epoch, and lag.
func (s *State) AddInfo(name string, fn func() any) {
	if s == nil || fn == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.infos = append(s.infos, info{name: name, fn: fn})
}

// Live reports liveness. A running process is always live; the probe
// exists so orchestrators distinguish "restart me" (no answer at all) from
// "stop routing to me" (Ready failing).
func (s *State) Live() error { return nil }

// Ready returns nil when the process should receive traffic: marked
// ready, not draining, and every registered check passing.
func (s *State) Ready() error {
	if s == nil {
		return nil // no state configured: always ready
	}
	if s.draining.Load() {
		return fmt.Errorf("draining")
	}
	if !s.ready.Load() {
		return fmt.Errorf("not ready")
	}
	s.mu.Lock()
	checks := append([]check(nil), s.checks...)
	s.mu.Unlock()
	for _, c := range checks {
		if err := c.fn(); err != nil {
			return fmt.Errorf("%s: %w", c.name, err)
		}
	}
	return nil
}

// Report evaluates every check and info provider and returns the structured
// readiness report. Unlike Ready it does not stop at the first failing
// check: every component's state is reported, so an operator reading
// /readyz sees the whole picture at once.
func (s *State) Report() Report {
	rep := Report{Status: "ready", Ready: true, Components: map[string]Component{}}
	if s == nil {
		return rep
	}
	if s.draining.Load() {
		rep.Ready, rep.Draining = false, true
		rep.Status, rep.Reason = "draining", "draining"
	} else if !s.ready.Load() {
		rep.Ready = false
		rep.Status, rep.Reason = "not ready", "not ready"
	}
	s.mu.Lock()
	checks := append([]check(nil), s.checks...)
	infos := append([]info(nil), s.infos...)
	s.mu.Unlock()
	for _, c := range checks {
		comp := Component{OK: true}
		if err := c.fn(); err != nil {
			comp.OK = false
			comp.Error = err.Error()
			if rep.Ready {
				rep.Ready = false
				rep.Status = "not ready"
				rep.Reason = fmt.Sprintf("%s: %v", c.name, err)
			}
		}
		rep.Components[c.name] = comp
	}
	for _, in := range infos {
		comp, ok := rep.Components[in.name]
		if !ok {
			comp = Component{OK: true}
		}
		comp.Info = in.fn()
		rep.Components[in.name] = comp
	}
	return rep
}
