package main

import (
	"fmt"
	"math/rand"
	"time"

	"nnexus"
	"nnexus/internal/workload"
)

const (
	readsPerCycle = 18
	// authorCyclesPerSecond sizes the fixed op sequence from -seconds: the
	// cycle count must not depend on how fast the host is, or
	// invalidated_per_write would not repeat. A cycle took 20-25 ms here.
	authorCyclesPerSecond = 40
	// fillerSentence is appended by the update cycles. It must create no
	// link and no skip, so an update changes which entries are invalidated
	// and nothing else; set-up asserts that.
	fillerSentence = "Moreover this paragraph was reworded afterwards for clarity."
)

// authorCycle is one cycle of the author_mix sequence: a write (add on even
// cycles, update on odd ones), a relink of what it invalidated, then reads.
type authorCycle struct {
	add    *nnexus.Entry
	addID  int64 // the ID the engine must assign: the generator index
	update *nnexus.Entry
	reads  [readsPerCycle]int64
}

// authorCycles builds the seeded sequence: adds walk the held-out entries in
// order, updates and reads pick served entries. An update keeps the entry's
// linking policy, as an author's edit does.
func authorCycles(seed int64, corpus *workload.Corpus, policies map[int]string, base, n int) ([]authorCycle, error) {
	if need := (n + 1) / 2; need > len(corpus.Entries)-base {
		return nil, fmt.Errorf("author_mix: %d cycles need %d held-out entries, have %d", n, need, len(corpus.Entries)-base)
	}
	rng := rand.New(rand.NewSource(seed ^ 0xa07))
	cycles := make([]authorCycle, n)
	for c := range cycles {
		if c%2 == 0 {
			ge := corpus.Entries[base+c/2]
			cycles[c].add, cycles[c].addID = entryOf(ge), int64(ge.Index)
		} else {
			ge := corpus.Entries[rng.Intn(base)]
			e := entryOf(ge)
			e.ID = int64(ge.Index)
			e.Body += " " + fillerSentence
			e.Policy = policies[ge.Index]
			cycles[c].update = e
		}
		for r := range cycles[c].reads {
			cycles[c].reads[r] = int64(1 + rng.Intn(base))
		}
	}
	return cycles, nil
}

// authorPhase is what the single closed-loop author observed. An op is one
// entry link or one write: the reads, the writes and every entry a relink
// relinked.
type authorPhase struct {
	blocks    []blockStat // latMs holds the block's reads
	ops       int64
	writeMs   []float64 // raw
	relinked  int64     // entries Relink reported, summed over the writes
	links     int64     // links in every read's reply, summed
	attempted int64
	failed    int64
	spans     []span
}

// runAuthor plays the cycles in `blocks` equal blocks on one connection, each
// block beside a sampler: most of a cycle is the relink, which is the server
// linking in-process while the compiler works on the other core.
func runAuthor(conn *nnexus.Client, cycles []authorCycle, tr *tracer) *authorPhase {
	ph := &authorPhase{}
	perBlock := len(cycles) / blocks
	for b := 0; b < blocks; b++ {
		traced := tracedBlock(tr != nil, b)
		timed := func(name string, op int, fn func() error) float64 {
			t0 := time.Now()
			err := fn()
			t1 := time.Now()
			ph.attempted++
			if err != nil {
				ph.failed++
			}
			if traced {
				ph.spans = append(ph.spans, span{Op: op, Name: name,
					Start: int64(t0.Sub(tr.epoch)), End: int64(t1.Sub(tr.epoch))})
			}
			return float64(t1.Sub(t0)) / 1e6
		}
		var reads []float64
		relinkedBefore := ph.relinked
		smp := startSampler()
		for c := b * perBlock; c < (b+1)*perBlock; c++ {
			cy := &cycles[c]
			ph.writeMs = append(ph.writeMs, timed("client.write", c, func() error {
				if cy.add != nil {
					id, err := conn.AddEntry(cy.add)
					if err == nil && id != cy.addID {
						err = fmt.Errorf("held-out entry %d was assigned ID %d", cy.addID, id)
					}
					return err
				}
				return conn.UpdateEntry(cy.update)
			}))
			timed("client.relink", c, func() error {
				n, err := conn.Relink()
				ph.relinked += int64(n)
				return err
			})
			for _, id := range cy.reads {
				reads = append(reads, timed("client.read", c, func() error {
					lt, err := conn.LinkEntry(id, "", "")
					if err == nil {
						ph.links += int64(len(lt.Links))
					}
					return err
				}))
			}
		}
		st := blockStat{block: smp.finish(), latMs: reads}
		st.ops = int64(perBlock*(1+readsPerCycle)) + ph.relinked - relinkedBefore
		ph.blocks = append(ph.blocks, st)
		ph.ops += st.ops
	}
	return ph
}
