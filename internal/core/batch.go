package core

// Batch linking. A batch runs the Fig 2 pipeline (pipeline.go) per item
// with a bounded worker pool, around ONE capture stage: one candidate-entry
// snapshot and one domain-table generation for all of its items. This is
// the engine half of the wire batch methods (linkBatch, relinkBatch,
// addEntries) and the backing path of every relink.

import (
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"nnexus/internal/corpus"
)

// relinkChunk bounds how many entries a relink batch captures under one read
// lock. Chunking keeps the abort contract meaningful for large queues (later
// chunks are never dispatched after an error) and bounds how long a capture
// holds the lock.
const relinkChunk = 128

// batchItem carries one unit of a batch through the pipeline.
type batchItem struct {
	// id is the stored entry to link; 0 links text under the batch's plan.
	id   int64
	text string
	run  *linkRun // nil until the item is handed to a worker
	res  *Result
	err  error
}

// forEachItem feeds items to a bounded worker pool. When aborted is
// non-nil the feeder stops dispatching once it is set — items already
// handed to a worker finish, later ones are never started.
func forEachItem(items []*batchItem, workers int, aborted *atomic.Bool, fn func(*batchItem)) {
	if workers <= 1 || len(items) <= 1 {
		for _, it := range items {
			if aborted != nil && aborted.Load() {
				return
			}
			fn(it)
		}
		return
	}
	work := make(chan *batchItem)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for it := range work {
				fn(it)
			}
		}()
	}
	for _, it := range items {
		if aborted != nil && aborted.Load() {
			break
		}
		work <- it
	}
	close(work)
	wg.Wait()
}

// runBatch links items in three phases: (1) parallel per-item plan (entry
// items plan from the stored entry; text items share p) and scan, (2) one
// view capture for the whole batch, (3) parallel per-item finish against
// that view. Any item error sets aborted, so feeders (phase 1 here, later
// chunks in the caller) stop dispatching new work; items that already
// entered phase 1 still finish phase 3, matching the relink abort contract.
func (e *Engine) runBatch(items []*batchItem, p linkPlan, workers int, aborted *atomic.Bool) {
	defer func() {
		for _, it := range items {
			if it.run != nil {
				putRun(it.run)
				it.run = nil
			}
		}
	}()

	forEachItem(items, workers, aborted, func(it *batchItem) {
		it.run = e.getRun()
		it.run.plan = p
		if it.id != 0 {
			if it.run.plan, it.text, it.err = e.planEntry(it.id, LinkOptions{}); it.err != nil {
				aborted.Store(true)
				return
			}
		}
		e.scanText(it.run, it.text)
	})

	runs := make([]*linkRun, 0, len(items))
	for _, it := range items {
		if it.run != nil && it.err == nil {
			runs = append(runs, it.run)
		}
	}
	e.captureView(runs...)

	// Phase 3 dispatches every scanned item even when the batch has been
	// aborted: those items were already handed to workers.
	forEachItem(items, workers, nil, func(it *batchItem) {
		if it.run == nil || it.err != nil {
			return
		}
		if it.res, it.err = e.finish(it.run); it.err != nil {
			aborted.Store(true)
		}
	})
}

// LinkBatch links many free texts in one batch: one snapshot view and one
// domain-table generation are captured for all of them, and the items are
// processed by a worker pool (workers ≤ 0 selects GOMAXPROCS). Results are
// positional. The first item error aborts the batch and is returned.
func (e *Engine) LinkBatch(texts []string, opts LinkOptions, workers int) ([]*Result, error) {
	if len(texts) == 0 {
		return nil, nil
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(texts) {
		workers = len(texts)
	}
	items := make([]*batchItem, len(texts))
	for i, t := range texts {
		items[i] = &batchItem{text: t}
	}
	var aborted atomic.Bool
	e.runBatch(items, e.plan(&opts), workers, &aborted)
	out := make([]*Result, len(items))
	for i, it := range items {
		if it.err != nil {
			return nil, it.err
		}
		if it.res == nil {
			return nil, fmt.Errorf("core: link batch aborted before item %d", i)
		}
		out[i] = it.res
	}
	e.tel.batchRuns.Inc()
	e.tel.batchItems.Add(int64(len(items)))
	return out, nil
}

// RelinkBatch re-links the given entries through the shared-view batch
// path (see runBatch), clearing their invalidation flags on success. An
// empty ids slice relinks everything currently invalidated; workers ≤ 0
// selects GOMAXPROCS. The first error stops new work from being dispatched,
// but entries already handed to workers finish, and every result completed
// around the abort is returned with it. The relink telemetry counters
// advance by exactly the returned results and the observed errors.
func (e *Engine) RelinkBatch(ids []int64, workers int) (map[int64]*Result, error) {
	e.tel.relinkRuns.Inc()
	start := time.Now()
	if len(ids) == 0 {
		ids = e.Invalidated()
	}
	out, nerrs, err := e.relinkShared(ids, workers)
	e.finishRelink(start, len(out), nerrs)
	return out, err
}

// relinkShared runs the chunked shared-view relink over ids.
func (e *Engine) relinkShared(ids []int64, workers int) (map[int64]*Result, int, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	out := make(map[int64]*Result, len(ids))
	var (
		aborted  atomic.Bool
		firstErr error
		nerrs    int
	)
	for off := 0; off < len(ids) && !aborted.Load(); off += relinkChunk {
		end := off + relinkChunk
		if end > len(ids) {
			end = len(ids)
		}
		items := make([]*batchItem, 0, end-off)
		for _, id := range ids[off:end] {
			items = append(items, &batchItem{id: id})
		}
		w := workers
		if w > len(items) {
			w = len(items)
		}
		seq := e.seq.Load()
		e.runBatch(items, linkPlan{}, w, &aborted)
		done := make([]int64, 0, len(items))
		for _, it := range items {
			switch {
			case it.err != nil:
				nerrs++
				if firstErr == nil {
					firstErr = it.err
				}
			case it.res != nil:
				out[it.id] = it.res
				done = append(done, it.id)
			}
		}
		e.relinked(seq, done...)
	}
	return out, nerrs, firstErr
}

// AddEntries validates, stores, and indexes many entries as one batch. All
// entries are admitted (shape, domain, policy) before anything commits, so a
// bad entry rejects the whole batch; on success every entry's ID field is
// set and the assigned IDs are returned in order. The batch, its ID
// high-water mark and the invalidation flags it sets persist as a single
// atomic storage batch (one WAL record, one fsync).
func (e *Engine) AddEntries(entries []*corpus.Entry) ([]int64, error) {
	if len(entries) == 0 {
		return nil, nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	for i, entry := range entries {
		if err := e.admitLocked(entry); err != nil {
			if len(entries) > 1 {
				err = fmt.Errorf("core: batch entry %d: %w", i, err)
			}
			return nil, err
		}
	}
	ids := make([]int64, len(entries))
	for i, entry := range entries {
		entry.ID = e.nextID + int64(i)
		ids[i] = entry.ID
		if entry.ExternalID == "" {
			entry.ExternalID = strconv.FormatInt(entry.ID, 10)
		}
	}
	e.tel.opAddEntry.Add(int64(len(entries)))
	if err := e.storeLocked(entries...); err != nil {
		return nil, err
	}
	return ids, nil
}
