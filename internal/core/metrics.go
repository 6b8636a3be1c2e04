package core

// Metrics are cumulative engine counters since construction, for
// operational monitoring of a deployment.
type Metrics struct {
	// Operations.
	TextsLinked   int64 `json:"textsLinked"`
	EntriesLinked int64 `json:"entriesLinked"`
	EntriesAdded  int64 `json:"entriesAdded"`

	// Link outcomes.
	LinksCreated   int64 `json:"linksCreated"`
	PolicySkips    int64 `json:"policySkips"`
	SelfSkips      int64 `json:"selfSkips"`
	DuplicateSkips int64 `json:"duplicateSkips"`

	// Invalidation churn.
	Invalidations int64 `json:"invalidations"`
}

// Metrics returns the engine's cumulative counters, read from its telemetry
// registry: entries added count both add_entry and put_entry operations, and
// invalidations are summed over every corpus.
func (e *Engine) Metrics() Metrics {
	t := e.tel
	m := Metrics{
		TextsLinked:    t.opLinkText.Value(),
		EntriesLinked:  t.opLinkEntry.Value(),
		EntriesAdded:   t.opAddEntry.Value() + t.opPutEntry.Value(),
		LinksCreated:   t.linksCreated.Value(),
		PolicySkips:    t.skipPolicy.Value(),
		SelfSkips:      t.skipSelf.Value(),
		DuplicateSkips: t.skipDuplicate.Value(),
	}
	t.corpusMu.Lock()
	for _, c := range t.corpusInv {
		m.Invalidations += c.Value()
	}
	t.corpusMu.Unlock()
	return m
}
