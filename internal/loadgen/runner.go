package loadgen

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"
)

// Target executes one generated request. worker identifies the executor
// goroutine (0-based), so callers can pin workers to connections.
type Target func(worker int, ev Event) error

// Classifier buckets request errors for reporting. Returning "" means
// "not an error" (the call is counted as completed); any other string is
// tallied in Result.Errors under that class.
type Classifier func(error) string

// Run is one open-loop measurement: pace Events onto Workers goroutines
// against Target, firing Script actions at their offsets, and record both
// intended-start-to-completion latency (the coordinated-omission-free
// number) and naive service latency (what a closed-loop harness would
// report).
//
// The pacer releases every event into an unbounded queue at its intended
// time, whether or not any worker is free — that is the open loop. A
// worker picking the event up late does not move its intended start:
// queueing delay caused by a stalled or saturated server is charged to
// every request that should have run during the stall.
type Run struct {
	// Events is the intended traffic, sorted by At (Generate's output).
	Events []Event
	// Script holds chaos actions fired at their offsets during the run.
	Script []ScriptEvent
	// Duration is the intended span of the schedule, used for the offered
	// and achieved rates; zero falls back to the last event's At.
	Duration time.Duration
	// Workers is how many executor goroutines drain the queue (≥ 1).
	Workers int
	// Target executes one request; required.
	Target Target
	// Classify buckets errors; nil counts every error under "error".
	Classify Classifier
	// Drain bounds how long after the last intended arrival the run waits
	// for queued requests to complete before declaring them unfinished;
	// zero selects 10 seconds.
	Drain time.Duration
}

// Closed is one closed-loop measurement: Workers goroutines each call
// Target back to back until Duration has passed. A slow server slows its
// own drivers, so a closed loop measures the throughput a fixed number of
// callers get, not the latency of traffic that keeps arriving (Run does
// that).
type Closed struct {
	// Workers is how many goroutines call Target (≥ 1).
	Workers int
	// Duration bounds the run: no call starts after it has passed.
	Duration time.Duration
	// Target executes one call; required. worker is the calling
	// goroutine (0-based).
	Target func(worker int) error
	// Classify buckets errors; nil counts every error under "error".
	Classify Classifier
}

// Result is one completed run.
type Result struct {
	// Offered is the intended arrival rate: issued events over the
	// intended duration. A closed loop offers no rate and leaves it zero.
	Offered float64
	// Duration is the intended schedule span; for a closed loop, the
	// measured wall time, so AchievedRate is its QPS.
	Duration time.Duration
	// Issued counts events released to workers; Completed counts those
	// whose Target returned success within the drain window; Unfinished
	// counts events abandoned in the queue when the drain window closed.
	Issued, Completed, Unfinished int
	// Errors tallies failed calls by Classifier class.
	Errors map[string]int
	// Intended records intended-start→completion latency: the number an
	// SLO is judged on. A closed-loop call is intended to start when it is
	// issued, so there Intended and Service are one histogram.
	Intended *Hist
	// Service records actual-issue→completion latency: the forgiving
	// number a closed-loop harness reports. The gap between the two is
	// the coordinated omission the harness refuses to commit.
	Service *Hist
}

// AchievedRate returns completed requests per intended second.
func (r *Result) AchievedRate() float64 {
	if r.Duration <= 0 {
		return 0
	}
	return float64(r.Completed) / r.Duration.Seconds()
}

// Failed returns how many calls failed, over every error class.
func (r *Result) Failed() int {
	var n int
	for _, c := range r.Errors {
		n += c
	}
	return n
}

// AchievedRatio returns achieved/offered in [0,∞); a saturated system
// falls below 1.
func (r *Result) AchievedRatio() float64 {
	if r.Offered <= 0 {
		return 0
	}
	return r.AchievedRate() / r.Offered
}

// ErrNoEvents is returned by Do for an empty schedule.
var ErrNoEvents = errors.New("loadgen: no events to run")

// Do executes the run and blocks until every request completed or the
// drain window closed.
func (r Run) Do() (*Result, error) {
	if r.Target == nil {
		return nil, errors.New("loadgen: Run.Target is required")
	}
	if len(r.Events) == 0 {
		return nil, ErrNoEvents
	}
	workers := r.Workers
	if workers < 1 {
		workers = 1
	}
	duration := r.Duration
	if duration <= 0 {
		duration = r.Events[len(r.Events)-1].At
	}
	drain := r.Drain
	if drain <= 0 {
		drain = 10 * time.Second
	}
	classify := r.Classify
	if classify == nil {
		classify = func(error) string { return "error" }
	}

	res := &Result{
		Offered:  float64(len(r.Events)) / duration.Seconds(),
		Duration: duration,
		Issued:   len(r.Events),
		Errors:   make(map[string]int),
		Intended: NewHist(),
		Service:  NewHist(),
	}

	queue := make(chan Event, len(r.Events))
	start := time.Now()
	var stopped atomic.Bool
	stopTimer := time.AfterFunc(duration+drain, func() { stopped.Store(true) })
	defer stopTimer.Stop()

	// The pacer: release every event at its intended offset. If the pacer
	// itself slips (scheduler wakeup granularity at high rates), the slip
	// is still charged to the affected requests, because intended latency
	// is measured from start+ev.At, not from the release instant —
	// lateness anywhere in the harness shows up as latency, never as
	// forgiveness.
	go func() {
		script := sortScript(r.Script)
		for _, ev := range r.Events {
			for len(script) > 0 && script[0].At <= ev.At {
				sleepUntil(start.Add(script[0].At))
				script[0].Fire()
				script = script[1:]
			}
			sleepUntil(start.Add(ev.At))
			queue <- ev
		}
		for _, s := range script {
			sleepUntil(start.Add(s.At))
			s.Fire()
		}
		close(queue)
	}()

	var (
		wg sync.WaitGroup
		mu sync.Mutex // guards res.Completed/Unfinished/Errors
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var done, abandoned int
			local := make(map[string]int)
			for ev := range queue {
				if stopped.Load() {
					abandoned++
					continue
				}
				issuedAt := time.Now()
				err := r.Target(w, ev)
				end := time.Now()
				if class := classifyErr(classify, err); class != "" {
					local[class]++
					continue
				}
				res.Intended.Record(end.Sub(start.Add(ev.At)))
				res.Service.Record(end.Sub(issuedAt))
				done++
			}
			res.add(&mu, done, abandoned, local)
		}(w)
	}
	wg.Wait()
	return res, nil
}

// Do executes the closed loop and returns once every worker's last call
// has returned: at most one call's latency after Duration.
func (c Closed) Do() (*Result, error) {
	if c.Target == nil {
		return nil, errors.New("loadgen: Closed.Target is required")
	}
	classify := c.Classify
	if classify == nil {
		classify = func(error) string { return "error" }
	}
	res := &Result{Errors: make(map[string]int), Service: NewHist()}
	res.Intended = res.Service

	var (
		wg sync.WaitGroup
		mu sync.Mutex // guards res.Completed/Errors
	)
	start := time.Now()
	deadline := start.Add(c.Duration)
	for w := 0; w < max(c.Workers, 1); w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var done int
			local := make(map[string]int)
			for issuedAt := time.Now(); issuedAt.Before(deadline); {
				err := c.Target(w)
				end := time.Now()
				if class := classifyErr(classify, err); class != "" {
					local[class]++
				} else {
					res.Service.Record(end.Sub(issuedAt))
					done++
				}
				issuedAt = end
			}
			res.add(&mu, done, 0, local)
		}(w)
	}
	wg.Wait()
	res.Duration = time.Since(start)
	res.Issued = res.Completed + res.Failed()
	return res, nil
}

// add folds one worker's counts into r under mu.
func (r *Result) add(mu *sync.Mutex, done, abandoned int, errs map[string]int) {
	mu.Lock()
	defer mu.Unlock()
	r.Completed += done
	r.Unfinished += abandoned
	for k, v := range errs {
		r.Errors[k] += v
	}
}

func classifyErr(classify Classifier, err error) string {
	if err == nil {
		return ""
	}
	if class := classify(err); class != "" {
		return class
	}
	return "error"
}

// sleepUntil sleeps until t (no-op when t has passed).
func sleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		time.Sleep(d)
	}
}
