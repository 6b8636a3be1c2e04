package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around the
// call (the program itself is not instrumented). Parent is the ID of the
// span whose work this call stands for a part of, 0 for a root; spans of one
// replayed operation share Op.
//
// A child is a standalone replay of one stage of its parent on the same
// input — the harness cannot reach inside Engine.LinkText — so a child's
// interval follows its parent's instead of lying inside it, and self time is
// taken from durations.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. It is used from one
// goroutine at a time.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// record runs fn inside a new span and returns the span's ID for children.
func (t *tracer) record(name string, parent, op int, fn func()) int {
	start := time.Since(t.epoch)
	fn()
	end := time.Since(t.epoch)
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: int64(start), End: int64(end)})
	return id
}

// layerTime is what a trace says about one span name.
type layerTime struct {
	Count int
	Total time.Duration // summed span durations
	Self  time.Duration // Total minus the summed durations of child spans
}

// selfTimes folds spans into per-name totals. Self time is taken over all
// spans of a name together, not span by span: a garbage collection lands in
// a parent or in the standalone replay of its child at random, so single
// spans often show a child longer than its parent while the sums agree.
// exceeded lists the names whose children outran them even in sum; their
// self time is negative and says the budget is inconsistent.
func selfTimes(spans []span) (byName map[string]*layerTime, exceeded []string) {
	byName = make(map[string]*layerTime)
	for _, s := range spans {
		lt := byName[s.Name]
		if lt == nil {
			lt = &layerTime{}
			byName[s.Name] = lt
		}
		dur := time.Duration(s.End - s.Start)
		lt.Count++
		lt.Total += dur
		lt.Self += dur
		if s.Parent != 0 {
			byName[spans[s.Parent-1].Name].Self -= dur // a parent precedes its children
		}
	}
	for name, lt := range byName {
		if lt.Self < 0 {
			exceeded = append(exceeded, name)
		}
	}
	sort.Strings(exceeded)
	return byName, exceeded
}

// perOp is a layer's mean duration per operation in microseconds.
func (lt *layerTime) perOp(self bool, ops int) float64 {
	if lt == nil || ops == 0 {
		return 0
	}
	d := lt.Total
	if self {
		d = lt.Self
	}
	return float64(d) / float64(ops) / 1e3
}

// writeJSONL writes the spans, one JSON object per line.
func (t *tracer) writeJSONL(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
