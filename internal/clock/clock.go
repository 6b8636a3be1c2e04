// Package clock is the node's one clock: every lease, timeout, backoff,
// debounce, token bucket and latency of the serving packages reads it. It is
// the wall clock unless a test installs a Manual clock, which moves only when
// the test advances it and which every node in the test process then shares.
package clock

import (
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// manual is the installed Manual clock; nil means the wall clock.
var manual atomic.Pointer[Manual]

// Now returns the process clock's current time.
func Now() time.Time {
	if m := manual.Load(); m != nil {
		return m.Now()
	}
	return time.Now()
}

// After returns NewTimer(d).C.
func After(d time.Duration) <-chan time.Time { return NewTimer(d).C }

// NewTimer returns a timer that fires once d has passed on the process clock.
func NewTimer(d time.Duration) *Timer {
	if m := manual.Load(); m != nil {
		return m.NewTimer(d)
	}
	t := time.NewTimer(d)
	return &Timer{C: t.C, wall: t}
}

// Install makes m the process clock until restore. Only tests call it, before
// they boot the nodes that read m; they restore once those have stopped.
func Install(m *Manual) (restore func()) {
	prev := manual.Swap(m)
	return func() { manual.Store(prev) }
}

// Timer is a one-shot timer: C receives the clock's time at the deadline.
type Timer struct {
	C     <-chan time.Time
	wall  *time.Timer // on the wall clock
	m     *Manual     // on a Manual clock, which guards the fields below
	c     chan time.Time
	when  time.Time
	armed bool
}

// Stop keeps the timer from firing. It reports whether the timer was armed.
func (t *Timer) Stop() bool {
	if t.wall != nil {
		return t.wall.Stop()
	}
	t.m.mu.Lock()
	defer t.m.mu.Unlock()
	return t.m.disarm(t)
}

// Reset re-arms the timer to fire d from now, dropping a time C holds. It
// reports whether the timer was armed.
func (t *Timer) Reset(d time.Duration) bool {
	if t.wall != nil {
		return t.wall.Reset(d)
	}
	t.m.mu.Lock()
	defer t.m.mu.Unlock()
	armed := t.m.disarm(t)
	select {
	case <-t.c:
	default:
	}
	t.m.arm(t, d)
	return armed
}

// Manual is a clock that moves only when Advance moves it.
type Manual struct {
	mu     sync.Mutex
	now    time.Time
	timers []*Timer // armed, by deadline, then by arming order
}

// NewManual returns a Manual clock reading start.
func NewManual(start time.Time) *Manual { return &Manual{now: start} }

// Now returns the clock's current time.
func (m *Manual) Now() time.Time {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.now
}

// NewTimer returns a timer that fires once the clock has advanced by d.
func (m *Manual) NewTimer(d time.Duration) *Timer {
	c := make(chan time.Time, 1)
	t := &Timer{C: c, m: m, c: c}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.arm(t, d)
	return t
}

// Advance moves the clock forward by d. The timers due by then fire in
// deadline order, timers with one deadline in arming order, each while the
// clock reads its deadline.
func (m *Manual) Advance(d time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	end := m.now.Add(d)
	for m.fireNext(end) != nil {
	}
	m.now = end
}

// fireNext fires and returns the first timer due by end, if any; m.mu is held.
func (m *Manual) fireNext(end time.Time) *Timer {
	if len(m.timers) == 0 || m.timers[0].when.After(end) {
		return nil
	}
	t := m.timers[0]
	m.timers, t.armed, m.now = slices.Delete(m.timers, 0, 1), false, t.when
	t.c <- t.when // empty: arming follows a drain or a new channel
	return t
}

// arm schedules t to fire d from now. Callers hold m.mu.
func (m *Manual) arm(t *Timer, d time.Duration) {
	if t.when = m.now.Add(d); d <= 0 {
		t.c <- m.now
		return
	}
	i := slices.IndexFunc(m.timers, func(u *Timer) bool { return u.when.After(t.when) })
	if i < 0 {
		i = len(m.timers)
	}
	m.timers, t.armed = slices.Insert(m.timers, i, t), true
}

// disarm unschedules t and reports whether it was armed. Callers hold m.mu.
func (m *Manual) disarm(t *Timer) bool {
	armed := t.armed
	m.timers, t.armed = slices.DeleteFunc(m.timers, func(u *Timer) bool { return u == t }), false
	return armed
}
