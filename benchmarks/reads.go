package main

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"time"

	"nnexus"
)

const (
	// blocks: a stall of the shared host wipes out the short block it falls
	// into and leaves the others clean, so every timing is reduced inside
	// its block first and the median over the blocks is reported.
	blocks = 16
	// sliceDur is how long the callers of a wired workload run between two
	// reference slices. The host's speed changes from one 10 ms to the next
	// by a fifth, so the reference has to come round about that often to see
	// the same weather as the workload.
	sliceDur     = 8 * time.Millisecond
	readCallers  = 2 // closed-loop callers
	snippetTexts = 4096
	documents    = 512
	bodiesPerDoc = 8
)

// readOp is one request of a workload's seeded read stream: LinkEntry of a
// stored entry when entry is set, LinkText otherwise.
type readOp struct {
	entry   int64
	text    string
	classes []string
}

// do issues the op over the wire and returns how many links came back.
func (op *readOp) do(c *nnexus.Client) (int, error) {
	if op.entry != 0 {
		lt, err := c.LinkEntry(op.entry, "", "")
		if err != nil {
			return 0, err
		}
		return len(lt.Links), nil
	}
	lt, err := c.LinkText(op.text, op.classes, "", "", "")
	if err != nil {
		return 0, err
	}
	return len(lt.Links), nil
}

// link runs the same op in-process.
func (op *readOp) link(eng *nnexus.Engine) (*nnexus.Result, error) {
	if op.entry != 0 {
		return eng.LinkEntry(op.entry, nnexus.LinkOptions{})
	}
	return eng.LinkText(op.text, nnexus.LinkOptions{SourceClasses: op.classes})
}

// snippetOps are ~25-token notes invoking a few served titles, each linked
// on behalf of a seeded entry's classes so that steering runs.
func snippetOps(f *fixture) []readOp {
	rng := rand.New(rand.NewSource(f.cfg.seed ^ 0x5e1))
	ops := make([]readOp, 0, snippetTexts)
	for _, text := range f.served.QueryTexts(snippetTexts, f.cfg.seed) {
		src := f.served.Entries[rng.Intn(len(f.served.Entries))]
		ops = append(ops, readOp{text: text, classes: src.Entry.Classes})
	}
	return ops
}

// documentOps are ~5 KB documents: eight seeded entry bodies, linked under
// the classes of the first.
func documentOps(f *fixture) []readOp {
	rng := rand.New(rand.NewSource(f.cfg.seed ^ 0xd0c))
	ops := make([]readOp, 0, documents)
	for i := 0; i < documents; i++ {
		var b strings.Builder
		var classes []string
		for j := 0; j < bodiesPerDoc; j++ {
			ge := f.served.Entries[rng.Intn(len(f.served.Entries))]
			if j == 0 {
				classes = ge.Entry.Classes
			} else {
				b.WriteString("\n\n")
			}
			b.WriteString(ge.Entry.Body)
		}
		ops = append(ops, readOp{text: b.String(), classes: classes})
	}
	return ops
}

// blockStat is one block of a timed phase: what the meter or the sampler
// read, the ops completed in it and the raw latencies of its reads.
type blockStat struct {
	block
	ops   int64
	latMs []float64
}

// readPhase is what the closed-loop callers observed.
type readPhase struct {
	blocks    []blockStat
	attempted int64
	failed    int64
	seen      []int32 // per op index, links in its first reply, -1 if never sent
	spans     []span  // one per op of the traced blocks
}

// readCaller is one closed-loop caller. It sends ops g, g+callers, ... and
// carries on where it stopped in the previous slice.
type readCaller struct {
	do     func(op *readOp) (links int, err error)
	next   int
	lat    []float64 // of the current block
	spans  []span
	failed int64
	seen   []int32
}

// run sends ops until one completes after the deadline.
func (c *readCaller) run(ops []readOp, stride int, deadline time.Time, spanName string, epoch time.Time) {
	for {
		i := c.next % len(ops)
		t0 := time.Now()
		links, err := c.do(&ops[i])
		t1 := time.Now()
		c.next += stride
		c.lat = append(c.lat, float64(t1.Sub(t0))/1e6)
		switch {
		case err != nil:
			c.failed++
		case c.seen[i] < 0:
			c.seen[i] = int32(links)
		case c.seen[i] != int32(links):
			c.failed++
		}
		if spanName != "" {
			c.spans = append(c.spans, span{Op: i, Name: spanName,
				Start: int64(t0.Sub(epoch)), End: int64(t1.Sub(epoch))})
		}
		if t1.After(deadline) {
			return
		}
	}
}

// runReads drives the op stream from closed-loop callers, one per element of
// do, for `blocks` blocks of blockDur each. With an echo reference (a wired
// workload) a block alternates slices of the callers with slices of the
// reference; without one the callers run the block through beside a sampler.
// With a tracer, the traced blocks record a span per op under spanName.
func runReads(ops []readOp, do []func(op *readOp) (int, error), ref *reference, blockDur time.Duration, tr *tracer, spanName string) (*readPhase, error) {
	ph := &readPhase{seen: make([]int32, len(ops))}
	for i := range ph.seen {
		ph.seen[i] = -1
	}
	callers := make([]*readCaller, len(do))
	for g := range callers {
		callers[g] = &readCaller{do: do[g], next: g, seen: append([]int32(nil), ph.seen...)}
	}
	m := &meter{ref: ref}
	for b := 0; b < blocks; b++ {
		name, epoch := "", time.Time{}
		if tracedBlock(tr != nil, b) {
			name, epoch = spanName, tr.epoch
		}
		runUntil := func(deadline time.Time) {
			var wg sync.WaitGroup
			for _, c := range callers {
				wg.Add(1)
				go func(c *readCaller) {
					defer wg.Done()
					c.run(ops, len(callers), deadline, name, epoch)
				}(c)
			}
			wg.Wait()
		}
		var st blockStat
		end := time.Now().Add(blockDur)
		if ref != nil {
			for time.Now().Before(end) {
				m.slice(func() { runUntil(time.Now().Add(sliceDur)) })
			}
			st.block = m.take()
		} else {
			smp := startSampler()
			runUntil(end)
			st.block = smp.finish()
		}
		for _, c := range callers {
			st.latMs = append(st.latMs, c.lat...)
			c.lat = c.lat[:0]
		}
		st.ops = int64(len(st.latMs))
		ph.blocks = append(ph.blocks, st)
		ph.attempted += st.ops
	}
	for _, c := range callers {
		ph.failed += c.failed
		ph.spans = append(ph.spans, c.spans...)
		for i, v := range c.seen {
			switch {
			case v < 0:
			case ph.seen[i] < 0:
				ph.seen[i] = v
			case ph.seen[i] != v:
				ph.failed++
			}
		}
	}
	return ph, m.err
}

// verifyReads links the whole stream in-process and compares every reply
// the callers saw with it. The checksum is the stream's total link count,
// which one seed must always reproduce.
func verifyReads(f *fixture, ops []readOp, seen []int32) (checksum int64, problems []string) {
	mismatched := 0
	for i := range ops {
		res, err := ops[i].link(f.eng)
		if err != nil {
			return 0, []string{fmt.Sprintf("in-process link of op %d: %v", i, err)}
		}
		checksum += int64(len(res.Links))
		if seen[i] >= 0 && int(seen[i]) != len(res.Links) {
			mismatched++
		}
	}
	if mismatched > 0 {
		problems = append(problems, fmt.Sprintf("%d ops returned other links than the check's in-process link", mismatched))
	}
	return checksum, problems
}
