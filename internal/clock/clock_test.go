package clock

import (
	"slices"
	"sync"
	"testing"
	"time"
)

var epoch = time.Unix(1_000_000, 0)

// fired returns what t's channel holds, without waiting.
func fired(t *Timer) (time.Time, bool) {
	select {
	case at := <-t.C:
		return at, true
	default:
		return time.Time{}, false
	}
}

// Timers fire in deadline order, and timers sharing a deadline in the order
// they were armed: each receives its own deadline, which it could not if a
// later one had fired first, and fireNext hands them out in that order.
func TestManualFiresInDeadlineOrder(t *testing.T) {
	m := NewManual(epoch)
	offsets := []time.Duration{30, 10, 20, 20, 10, 40}
	timers := make([]*Timer, len(offsets))
	for i, d := range offsets {
		timers[i] = m.NewTimer(d * time.Millisecond)
	}
	m.Advance(35 * time.Millisecond)
	for i, tm := range timers {
		at, ok := fired(tm)
		if want := epoch.Add(offsets[i] * time.Millisecond); offsets[i] <= 35 && (!ok || !at.Equal(want)) {
			t.Errorf("timer %d (+%dms): fired %v at %v, want at %v", i, offsets[i], ok, at, want)
		} else if offsets[i] > 35 && ok {
			t.Errorf("timer %d (+%dms) fired at %v, before its deadline", i, offsets[i], at)
		}
	}
	if got, want := m.Now(), epoch.Add(35*time.Millisecond); !got.Equal(want) {
		t.Errorf("Now = %v after the advance, want %v", got, want)
	}

	m = NewManual(epoch)
	for i, d := range offsets {
		timers[i] = m.NewTimer(d * time.Millisecond)
	}
	m.mu.Lock()
	var order []int
	for tm := m.fireNext(epoch.Add(time.Hour)); tm != nil; tm = m.fireNext(epoch.Add(time.Hour)) {
		for i := range timers {
			if timers[i] == tm {
				order = append(order, i)
			}
		}
	}
	m.mu.Unlock()
	if want := []int{1, 4, 2, 3, 0, 5}; !slices.Equal(order, want) {
		t.Errorf("fired timers %v, want %v", order, want)
	}
}

// No timer fires before its deadline, Advance(0) fires only what is due, and
// a timer of no duration is due at once.
func TestManualNeverFiresEarly(t *testing.T) {
	m := NewManual(epoch)
	tm := m.NewTimer(time.Second)
	m.Advance(0)
	m.Advance(time.Second - time.Nanosecond)
	if at, ok := fired(tm); ok {
		t.Fatalf("fired at %v, a nanosecond early", at)
	}
	m.Advance(time.Nanosecond)
	if at, ok := fired(tm); !ok || !at.Equal(epoch.Add(time.Second)) {
		t.Fatalf("fired %v at %v, want at the deadline", ok, at)
	}
	now := m.NewTimer(0)
	if at, ok := fired(now); !ok || !at.Equal(m.Now()) {
		t.Fatalf("a timer of no duration fired %v at %v, want at once", ok, at)
	}
	m.Advance(0)
	if _, ok := fired(tm); ok {
		t.Fatal("Advance(0) fired a timer twice")
	}
}

// Stop before the deadline keeps the timer from firing and reports that it
// was armed; Stop after it reports false.
func TestManualStop(t *testing.T) {
	m := NewManual(epoch)
	tm := m.NewTimer(time.Second)
	if !tm.Stop() {
		t.Fatal("Stop of an armed timer reported false")
	}
	m.Advance(time.Hour)
	if _, ok := fired(tm); ok {
		t.Fatal("a stopped timer fired")
	}
	if tm.Stop() {
		t.Fatal("a second Stop reported true")
	}
	late := m.NewTimer(time.Second)
	m.Advance(time.Second)
	if late.Stop() {
		t.Fatal("Stop of a fired timer reported true")
	}
}

// Reset re-arms a timer, stopped, armed or fired, to fire d from now, and
// drops a fired time nobody received.
func TestManualReset(t *testing.T) {
	m := NewManual(epoch)
	tm := m.NewTimer(time.Second)
	if !tm.Reset(3 * time.Second) {
		t.Fatal("Reset of an armed timer reported false")
	}
	m.Advance(2 * time.Second)
	if _, ok := fired(tm); ok {
		t.Fatal("fired at its old deadline after Reset")
	}
	m.Advance(time.Second)
	if _, ok := fired(tm); !ok {
		t.Fatal("did not fire at its new deadline")
	}
	m.Advance(time.Second)
	tm.Reset(time.Second)
	m.Advance(time.Second)
	if at, ok := fired(tm); !ok || !at.Equal(epoch.Add(5*time.Second)) {
		t.Fatalf("re-armed timer fired %v at %v, want at %v", ok, at, epoch.Add(5*time.Second))
	}
	stale := m.NewTimer(time.Second)
	m.Advance(time.Second)
	if stale.Reset(time.Second) {
		t.Fatal("Reset of a fired timer reported it armed")
	}
	if _, ok := fired(stale); ok {
		t.Fatal("Reset left the old firing in the channel")
	}
}

// The package functions read the installed clock, and restore puts the wall
// clock back.
func TestInstall(t *testing.T) {
	m := NewManual(epoch)
	restore := Install(m)
	if !Now().Equal(epoch) {
		t.Errorf("Now = %v on the installed clock, want %v", Now(), epoch)
	}
	tm, ch := NewTimer(time.Minute), After(time.Minute)
	m.Advance(time.Minute)
	if _, ok := fired(tm); !ok {
		t.Error("NewTimer did not run on the installed clock")
	}
	select {
	case <-ch:
	default:
		t.Error("After did not run on the installed clock")
	}
	restore()
	if time.Since(Now()) > time.Minute {
		t.Errorf("Now = %v after restore, want the wall clock", Now())
	}
	wall := NewTimer(time.Millisecond)
	<-wall.C
	if wall.Stop() {
		t.Error("Stop of a fired wall timer reported true")
	}
}

// Timers armed, stopped and reset from many goroutines while others advance
// the clock and read it, and while a clock is installed and restored, race
// with nothing (run with -race).
func TestManualConcurrent(t *testing.T) {
	m := NewManual(epoch)
	restore := Install(m)
	defer restore()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				tm := NewTimer(time.Duration(i%7) * time.Millisecond)
				_ = After(time.Duration(i%5) * time.Millisecond)
				if i%3 == 0 {
					tm.Stop()
				} else {
					tm.Reset(time.Millisecond)
				}
				_ = Now()
			}
		}()
	}
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			m.Advance(time.Millisecond)
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			Install(NewManual(epoch))()
		}
	}()
	wg.Wait()
	if got, want := m.Now(), epoch.Add(200*time.Millisecond); !got.Equal(want) {
		t.Errorf("Now = %v after 200 advances of 1ms, want %v", got, want)
	}
}
