// Package loadgen is the open-loop load subsystem: traffic schedules that
// fire requests at *intended* arrival times regardless of how fast the
// system under test acknowledges them, so a stalled server is charged for
// every request that should have started during the stall — the
// coordinated-omission-free discipline of wrk2/HdrHistogram — rather than
// only for the one request a closed-loop worker happened to have in
// flight.
//
// The pieces compose:
//
//   - a Schedule (Poisson for memoryless traffic, Diurnal for a
//     day-shaped sinusoidal rate) decides inter-arrival gaps;
//   - Generate turns a Schedule plus an operation Mix and a Zipfian
//     popularity model into a seeded-deterministic []Event — the same
//     seed always yields byte-identical traffic, so sweeps are
//     reproducible and regressions are attributable;
//   - Run paces those events onto worker goroutines against any Target
//     and records intended-start-to-completion latency in an HDR-style
//     histogram (hist.go), alongside the naive service latency a
//     closed-loop harness would have reported;
//   - Closed is that closed-loop harness: a fixed set of workers calling
//     back to back for a duration, for throughput experiments, reported in
//     the same Result;
//   - ScriptEvents fire chaos actions (invalidation storms, replica
//     kills) at fixed offsets inside a run;
//   - DetectKnee (knee.go) turns a sweep's curve points into the
//     offered-load knee.
package loadgen

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"
)

// OpKind is the type of one generated request.
type OpKind uint8

const (
	// OpRead is a point read (getEntry).
	OpRead OpKind = iota
	// OpLink is a free-text linking request (linkText).
	OpLink
	// OpWrite is a mutating request (updateEntry) — the op that feeds the
	// invalidation index.
	OpWrite
	// OpRelink drains the invalidation queue (relink).
	OpRelink
)

func (k OpKind) String() string {
	switch k {
	case OpRead:
		return "read"
	case OpLink:
		return "link"
	case OpWrite:
		return "write"
	case OpRelink:
		return "relink"
	}
	return fmt.Sprintf("opkind(%d)", uint8(k))
}

// Event is one intended request: start it At after the run begins, of kind
// Kind, against popularity rank Key (0 is the hottest key; OpRelink events
// carry Key -1, they have no target).
type Event struct {
	At   time.Duration
	Kind OpKind
	Key  int
}

// Mix is the operation mixture as non-negative weights; they need not sum
// to 1 (Generate normalizes). The zero Mix means pure reads.
type Mix struct {
	Read   float64
	Link   float64
	Write  float64
	Relink float64
}

func (m Mix) total() float64 { return m.Read + m.Link + m.Write + m.Relink }

// Schedule produces inter-arrival gaps. Implementations draw all
// randomness from the rng they are handed so that identical seeds yield
// identical schedules.
type Schedule interface {
	// Gap returns the gap from an event at offset elapsed to the next
	// event.
	Gap(rng *rand.Rand, elapsed time.Duration) time.Duration
	// Rate returns the mean arrival rate in events/second.
	Rate() float64
}

// Poisson is a homogeneous Poisson arrival process: exponential
// inter-arrival gaps with mean 1/rate, the memoryless open-loop baseline.
type Poisson struct{ rate float64 }

// NewPoisson returns a Poisson schedule at rate events/second.
func NewPoisson(rate float64) *Poisson {
	if rate <= 0 {
		panic("loadgen: Poisson rate must be positive")
	}
	return &Poisson{rate: rate}
}

// Gap draws an exponential inter-arrival gap.
func (p *Poisson) Gap(rng *rand.Rand, _ time.Duration) time.Duration {
	return time.Duration(rng.ExpFloat64() / p.rate * float64(time.Second))
}

// Rate returns the mean arrival rate.
func (p *Poisson) Rate() float64 { return p.rate }

// Diurnal is a non-homogeneous Poisson process whose instantaneous rate
// follows a sinusoidal "day": base*(1 + amplitude*sin(2π·t/period)). It
// models the traffic shape a web corpus actually sees — the knee must hold
// at the daily peak, not at the mean.
type Diurnal struct {
	base      float64
	amplitude float64
	period    time.Duration
}

// NewDiurnal returns a diurnal schedule averaging base events/second with
// the given peak-to-mean amplitude in [0,1) and day length period.
func NewDiurnal(base, amplitude float64, period time.Duration) *Diurnal {
	if base <= 0 || period <= 0 {
		panic("loadgen: Diurnal base rate and period must be positive")
	}
	if amplitude < 0 || amplitude >= 1 {
		panic("loadgen: Diurnal amplitude must be in [0,1)")
	}
	return &Diurnal{base: base, amplitude: amplitude, period: period}
}

// rateAt returns the instantaneous rate at offset t.
func (d *Diurnal) rateAt(t time.Duration) float64 {
	phase := 2 * math.Pi * float64(t) / float64(d.period)
	return d.base * (1 + d.amplitude*math.Sin(phase))
}

// Gap draws the next inter-arrival gap by thinning against the peak rate:
// candidate arrivals are drawn from a homogeneous process at the peak and
// accepted with probability rate(t)/peak, the standard exact sampler for
// non-homogeneous Poisson processes.
func (d *Diurnal) Gap(rng *rand.Rand, elapsed time.Duration) time.Duration {
	peak := d.base * (1 + d.amplitude)
	var gap time.Duration
	for {
		gap += time.Duration(rng.ExpFloat64() / peak * float64(time.Second))
		if rng.Float64()*peak <= d.rateAt(elapsed+gap) {
			return gap
		}
	}
}

// Rate returns the mean (not peak) arrival rate.
func (d *Diurnal) Rate() float64 { return d.base }

// Params configures Generate.
type Params struct {
	// Seed makes the event stream deterministic: identical Params yield
	// identical streams.
	Seed int64
	// Schedule decides arrival times; nil panics (pick the rate
	// explicitly — there is no safe default offered load).
	Schedule Schedule
	// Duration is the intended span of the stream; the last event's At is
	// strictly below it.
	Duration time.Duration
	// Mix is the operation mixture (zero value: pure reads).
	Mix Mix
	// Keys is the popularity key space (ranks 0..Keys-1); at least 1.
	Keys int
	// ZipfS is the Zipf exponent s > 1 (0 selects 1.2, a web-corpus-like
	// skew); ZipfV is the Zipf offset v ≥ 1 (0 selects 1).
	ZipfS, ZipfV float64
}

// Generate produces the deterministic open-loop event stream for p: event
// times from the schedule, kinds from the mix, and keys from a Zipfian
// popularity model (rank 0 hottest). Events are returned sorted by At.
func Generate(p Params) []Event {
	if p.Schedule == nil {
		panic("loadgen: Generate requires a Schedule")
	}
	if p.Duration <= 0 {
		panic("loadgen: Generate requires a positive Duration")
	}
	if p.Keys < 1 {
		p.Keys = 1
	}
	s, v := p.ZipfS, p.ZipfV
	if s == 0 {
		s = 1.2
	}
	if v == 0 {
		v = 1
	}
	rng := rand.New(rand.NewSource(p.Seed))
	zipf := rand.NewZipf(rng, s, v, uint64(p.Keys-1))

	total := p.Mix.total()
	mix := p.Mix
	if total == 0 {
		mix, total = Mix{Read: 1}, 1
	}
	readCut := mix.Read / total
	linkCut := readCut + mix.Link/total
	writeCut := linkCut + mix.Write/total

	// Expected length; the append loop handles the variance.
	events := make([]Event, 0, int(p.Schedule.Rate()*p.Duration.Seconds())+16)
	at := p.Schedule.Gap(rng, 0)
	for at < p.Duration {
		ev := Event{At: at, Key: -1}
		switch u := rng.Float64(); {
		case u < readCut:
			ev.Kind = OpRead
		case u < linkCut:
			ev.Kind = OpLink
		case u < writeCut:
			ev.Kind = OpWrite
		default:
			ev.Kind = OpRelink
		}
		if ev.Kind != OpRelink {
			ev.Key = int(zipf.Uint64())
		}
		events = append(events, ev)
		at += p.Schedule.Gap(rng, at)
	}
	return events
}

// ScriptEvent is a chaos action fired at a fixed offset inside a run: an
// invalidation storm, a replica kill, a link stall. Fire runs on the
// pacer goroutine — keep it quick or have it spawn its own goroutine, or
// the arrival schedule behind it slips.
type ScriptEvent struct {
	At   time.Duration
	Name string
	Fire func()
}

// sortScript returns script ordered by At without mutating the input.
func sortScript(script []ScriptEvent) []ScriptEvent {
	out := append([]ScriptEvent(nil), script...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out
}
