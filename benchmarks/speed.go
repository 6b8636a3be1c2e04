package main

import (
	"bufio"
	"fmt"
	"io"
	"math/rand"
	"net"
	"strconv"
	"sync"
	"syscall"
	"time"
)

// The sandbox this benchmark runs in shares its cores. A fixed single-thread
// kernel ran anywhere between 62 and 105 units per second here from one
// second to the next, 16 s windows of one workload differed by 20% within
// ten minutes, in CPU time per op as much as in wall time, and no reduction
// of raw timings (medians, quartiles or maxima of 10 to 28 blocks) brought
// ten runs within 10% of each other.
//
// What did is measuring the host beside the workload. While a stretch of
// work is timed, a reference runs too: a fixed piece of work written against
// the standard library only, so no change to the repository changes it. The
// stretch's speed is the reference's nominal time over the median of the
// times it took, and every reported time is the raw time multiplied by that
// speed (a rate is divided by it): times are those of a host on which the
// reference runs at its nominal pace. That took the spread of ten runs from
// 9-25% to 1-5%.
//
// The reference comes in the two shapes of the work it stands beside,
// because the host's weather does not slow everything alike: a round trip
// over a socket waits for a sleeping core to wake, in-process linking does
// not. Work that happens in-process runs beside a sampler; the callers of a
// wired workload take turns with an echo reference through a meter. Each was
// tried on the other's workload and left it half as steady.

const (
	// refEchoTrips round trips make one slice of the echo reference.
	refEchoTrips    = 80
	refRequestSize  = 600
	refResponseSize = 1200
	refSnippetSize  = 400
	// A sampler links the reference text sampleUnits times over every
	// samplePeriod: a twentieth of one core.
	samplePeriod = 4 * time.Millisecond
	sampleUnits  = 3
	// The nominal host is this sandbox on the day these were measured: one
	// sample beside a busy core, and one echo slice on two threads at once.
	sampleNominal = 150 * time.Microsecond
	echoNominal   = 2200 * time.Microsecond
)

// refWords and refText are the reference's fixed vocabulary and 5 KB
// document: half of the document's words are in the vocabulary.
var refWords, refText = func() (map[string]int32, string) {
	rng := rand.New(rand.NewSource(1))
	vocab := make([]string, 8192)
	for i := range vocab {
		b := make([]byte, 3+rng.Intn(8))
		for j := range b {
			b[j] = byte('a' + rng.Intn(26))
		}
		vocab[i] = string(b)
	}
	words := make(map[string]int32, len(vocab)/2)
	for i, w := range vocab[:len(vocab)/2] {
		words[w] = int32(i)
	}
	var text []byte
	for len(text) < 5000 {
		text = append(text, vocab[rng.Intn(len(vocab))]...)
		text = append(text, ' ')
	}
	return words, string(text)
}()

// refLink is the reference's unit of work, a linker in miniature: it splits
// text into words, looks each up and appends the text with the known words
// linked to buf[:0]. It allocates nothing once buf has grown, so the
// reference adds nothing to alloc_kb_op and starts no collection.
func refLink(buf []byte, text string) []byte {
	buf = buf[:0]
	start := -1
	for i := 0; i <= len(text); i++ {
		if i < len(text) && text[i] >= 'a' && text[i] <= 'z' {
			if start < 0 {
				start = i
			}
			continue
		}
		if start >= 0 {
			w := text[start:i]
			if id, ok := refWords[w]; ok {
				buf = append(buf, `<a href="http://example.org/?id=`...)
				buf = strconv.AppendInt(buf, int64(id), 10)
				buf = append(buf, `">`...)
				buf = append(buf, w...)
				buf = append(buf, "</a>"...)
			} else {
				buf = append(buf, w...)
			}
			start = -1
		}
		if i < len(text) {
			buf = append(buf, text[i])
		}
	}
	return buf
}

// sampler measures the host beside in-process work: a goroutine of its own
// takes one sample every samplePeriod while the work runs, on the other core
// or in turn with it. The twentieth of a core it takes is the same on every
// run.
type sampler struct {
	stop    chan struct{}
	done    chan struct{}
	start   time.Time
	cpu0    time.Duration
	samples []float64     // durations, ns
	busy    time.Duration // their sum: the sampler's own CPU
}

func startSampler() *sampler {
	s := &sampler{stop: make(chan struct{}), done: make(chan struct{}), start: time.Now(), cpu0: cpuTime()}
	go func() {
		defer close(s.done)
		buf := make([]byte, 0, 4*len(refText))
		tick := time.NewTicker(samplePeriod)
		defer tick.Stop()
		for {
			t0 := time.Now()
			for i := 0; i < sampleUnits; i++ {
				buf = refLink(buf, refText)
			}
			d := time.Since(t0)
			s.samples = append(s.samples, float64(d))
			s.busy += d
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

// finish stops the sampler and returns what the work beside it took.
func (s *sampler) finish() block {
	wall, cpu := time.Since(s.start), cpuTime()-s.cpu0
	close(s.stop)
	<-s.done
	return block{wallS: wall.Seconds(), cpuS: (cpu - s.busy).Seconds(), speed: float64(sampleNominal) / median(s.samples)}
}

// reference is the echo reference: every thread of a slice makes
// refEchoTrips round trips over its own loopback TCP connection to a
// goroutine that links a short text per request, as the client does per
// reply.
type reference struct {
	ln      net.Listener
	threads []*refThread
	served  sync.WaitGroup // the echo goroutines
}

type refThread struct {
	conn net.Conn
	in   *bufio.Reader
	req  []byte
	resp []byte
	buf  []byte
}

func newReference(threads int) (*reference, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	r := &reference{ln: ln}
	for i := 0; i < threads; i++ {
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			r.close()
			return nil, err
		}
		t := &refThread{conn: conn, in: bufio.NewReader(conn), req: make([]byte, refRequestSize),
			resp: make([]byte, refResponseSize), buf: make([]byte, 0, 4*refSnippetSize)}
		r.threads = append(r.threads, t)
		peer, err := ln.Accept()
		if err != nil {
			r.close()
			return nil, err
		}
		r.served.Add(1)
		go r.echo(peer)
	}
	return r, nil
}

// echo serves one connection until the client closes it.
func (r *reference) echo(c net.Conn) {
	defer r.served.Done()
	defer c.Close()
	in := bufio.NewReader(c)
	req, resp := make([]byte, refRequestSize), make([]byte, refResponseSize)
	buf := make([]byte, 0, 4*refSnippetSize)
	for {
		if _, err := io.ReadFull(in, req); err != nil {
			return
		}
		buf = refLink(buf, refText[:refSnippetSize])
		copy(resp, buf)
		if _, err := c.Write(resp); err != nil {
			return
		}
	}
}

// close stops the echo goroutines and waits for them.
func (r *reference) close() {
	for _, t := range r.threads {
		t.conn.Close()
	}
	r.ln.Close()
	r.served.Wait()
}

func (t *refThread) trips() error {
	for i := 0; i < refEchoTrips; i++ {
		if _, err := t.conn.Write(t.req); err != nil {
			return err
		}
		if _, err := io.ReadFull(t.in, t.resp); err != nil {
			return err
		}
		t.buf = refLink(t.buf, refText[:refSnippetSize])
	}
	return nil
}

// slice runs one slice on every thread at once and returns how long it took.
func (r *reference) slice() (time.Duration, error) {
	errs := make([]error, len(r.threads))
	var wg sync.WaitGroup
	start := time.Now()
	for i, t := range r.threads {
		wg.Add(1)
		go func(i int, t *refThread) {
			defer wg.Done()
			errs[i] = t.trips()
		}(i, t)
	}
	wg.Wait()
	d := time.Since(start)
	for _, err := range errs {
		if err != nil {
			return d, err
		}
	}
	return d, nil
}

// meter times slices of a wired workload and, after each, one slice of the
// echo reference. It is used from one goroutine.
type meter struct {
	ref  *reference
	wall time.Duration // the workload's slices
	cpu  time.Duration // the process's CPU during them
	refs []float64     // reference slice durations, ns
	err  error         // the first error of a reference slice
}

// slice runs fn as one slice of the workload.
func (m *meter) slice(fn func()) {
	c0 := cpuTime()
	t0 := time.Now()
	fn()
	m.wall += time.Since(t0)
	m.cpu += cpuTime() - c0
	d, err := m.ref.slice()
	if err != nil && m.err == nil {
		m.err = fmt.Errorf("reference slice: %w", err)
	}
	m.refs = append(m.refs, float64(d))
}

// take returns what the meter read since the last take.
func (m *meter) take() block {
	b := block{wallS: m.wall.Seconds(), cpuS: m.cpu.Seconds(), speed: float64(echoNominal) / median(m.refs)}
	m.wall, m.cpu, m.refs = 0, 0, m.refs[:0]
	return b
}

// block is what a sampler or a meter read over one stretch of work: the raw
// wall and CPU time of the work, and how fast the host was beside it relative
// to the nominal host (below 1: slower).
type block struct {
	wallS float64
	cpuS  float64
	speed float64
}

// seconds is the block's wall time on the nominal host.
func (b block) seconds() float64 { return b.wallS * b.speed }

// cpuSeconds is its CPU time there.
func (b block) cpuSeconds() float64 { return b.cpuS * b.speed }

// cpuTime is the process's user and system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
