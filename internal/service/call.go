package service

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"strings"
	"time"

	"nnexus/internal/core"
	"nnexus/internal/render"
	"nnexus/internal/wire"
)

// Reply is Call's answer, for each door to render: the socket sends its
// wire.Response, an HTTP route writes the part of it the route returns. A
// link method's results stay the engine's own: the socket converts them to
// the wire's, HTTP writes them as they are.
type Reply struct {
	wire.Response
	Result  *core.Result   // linkText, linkEntry
	Results []*core.Result // linkBatch, in request order
}

// InvalidError refuses a request whose link options do not parse: an
// unknown mode or format. It has no wire code; HTTP answers it 400.
type InvalidError struct{ msg string }

func (e *InvalidError) Error() string { return e.msg }

// Call is the execute stage: the one table of what each wire method does to
// the engine, whichever door carried the request. A door runs it inside
// Execute, after admission. The engine stores the request's own entries: a
// write sets their ID and corpus (their own, else the request's), as
// Engine.AddEntry does on its argument.
func (s *Service) Call(req *wire.Request) (*Reply, error) {
	r := &Reply{Response: wire.Response{Seq: req.Seq, Status: "ok"}}
	e := s.engine
	// A stopped engine answers every request but the replication and
	// liveness traffic with its one error.
	if err := e.Failed(); err != nil && wire.Methods[req.Method] != wire.KindControl {
		return nil, err
	}
	var err error
	switch req.Method {
	case wire.MethodPing:

	case wire.MethodReplSubscribe, wire.MethodReplSnapshot, wire.MethodReplAck:
		primary := s.Node.CurrentPrimary()
		if primary == nil {
			return nil, fmt.Errorf("%s: node is not a replication primary", req.Method)
		}
		switch req.Method {
		case wire.MethodReplSubscribe:
			wait := time.Duration(req.WaitMillis) * time.Millisecond
			r.Repl, err = primary.Subscribe(req.Offset, req.Epoch, req.MaxRecords, wait)
		case wire.MethodReplSnapshot:
			r.Repl, err = primary.Snapshot()
		default:
			primary.Ack(req.Follower, req.Offset)
		}

	case wire.MethodReplStatus:
		// The node's position, under its election epoch.
		st := s.Node.Status()
		r.Repl = &wire.ReplPayload{Role: st.Role, Epoch: st.Term, Head: st.Head,
			Applied: st.Applied, Stale: !st.Synced}
		r.Leader = st.Leader

	case wire.MethodReplVote:
		node, err := s.Node.Elector()
		if err != nil {
			return nil, err
		}
		r.Repl = node.HandleVote(req.Epoch, req.Offset, req.Candidate)
		r.Leader = node.Status().Leader

	case wire.MethodReplLead:
		node, err := s.Node.Elector()
		if err == nil {
			err = node.HandleLead(req.Epoch, req.Leader)
		}
		if err != nil {
			return nil, err
		}

	case wire.MethodAddDomain:
		if req.Domain == nil {
			return nil, errors.New("addDomain: missing domain")
		}
		err = e.AddDomain(*req.Domain)

	case wire.MethodAddEntry, wire.MethodUpdateEntry:
		if req.Entry == nil {
			return nil, fmt.Errorf("%s: missing entry", req.Method)
		}
		req.Entry.Corpus = cmp.Or(req.Entry.Corpus, req.Corpus)
		if req.Method == wire.MethodAddEntry {
			r.Object, err = e.AddEntry(req.Entry)
		} else {
			err = e.UpdateEntry(req.Entry)
		}

	case wire.MethodAddEntries:
		if len(req.Entries) == 0 {
			return nil, errors.New("addEntries: missing entries")
		}
		for _, entry := range req.Entries {
			entry.Corpus = cmp.Or(entry.Corpus, req.Corpus)
		}
		r.Objects, err = e.AddEntries(req.Entries)

	case wire.MethodRemoveEntry:
		err = e.RemoveEntry(req.Object)

	case wire.MethodSetPolicy:
		err = e.SetPolicy(req.Object, req.Policy)

	case wire.MethodGetEntry:
		var found bool
		if r.Entry, found = e.Entry(req.Object); !found {
			return nil, fmt.Errorf("getEntry: unknown entry %d", req.Object)
		}

	case wire.MethodLinkEntry, wire.MethodLinkText, wire.MethodLinkBatch:
		if req.Method == wire.MethodLinkBatch && len(req.Texts) == 0 {
			return nil, errors.New("linkBatch: missing texts")
		}
		var opts core.LinkOptions
		if opts, err = s.linkOptions(req); err != nil {
			return nil, err
		}
		switch req.Method {
		case wire.MethodLinkEntry:
			r.Result, err = e.LinkEntry(req.Object, opts)
		case wire.MethodLinkText:
			r.Result, err = e.LinkText(req.Text, opts)
		default:
			r.Results, err = e.LinkBatch(req.Texts, opts, 0)
		}

	case wire.MethodInvalidated:
		r.Invalidated = e.Invalidated()

	case wire.MethodRelink, wire.MethodRelinkBatch:
		var results map[int64]*core.Result
		if req.Method == wire.MethodRelink {
			results, err = e.RelinkInvalidated()
		} else {
			results, err = e.RelinkBatch(req.Objects, 0)
			r.Objects = make([]int64, 0, len(results))
			for id := range results {
				r.Objects = append(r.Objects, id)
			}
			slices.Sort(r.Objects)
		}
		r.Object = int64(len(results))

	case wire.MethodStats:
		hits, misses := e.CacheStats()
		met := e.Metrics()
		r.Stats = &wire.Stats{
			Entries:      e.NumEntries(),
			Concepts:     e.NumConcepts(),
			Domains:      len(e.Domains()),
			Invalidated:  len(e.Invalidated()),
			CacheHits:    hits,
			CacheMisses:  misses,
			LinksCreated: met.LinksCreated,
			TextsLinked:  met.TextsLinked,
		}

	default:
		return nil, fmt.Errorf("unknown method %q", req.Method)
	}
	if err != nil {
		return nil, err
	}
	return r, nil
}

// isLink says whether method links, and so reads link options.
func isLink(method string) bool {
	return method == wire.MethodLinkText || method == wire.MethodLinkEntry || method == wire.MethodLinkBatch
}

// linkOptions reads a link method's pipeline, format and corpus policy off
// the request. The free-text methods also steer by the request's classes
// and, naming no targets, link against the ones the source corpus's tenant
// policy configures (none = self-linking).
func (s *Service) linkOptions(req *wire.Request) (core.LinkOptions, error) {
	opts, err := ParseLinkOptions(req.Mode, req.Format)
	opts.SourceCorpus, opts.TargetCorpora = req.Corpus, req.Targets
	if req.Method != wire.MethodLinkEntry {
		opts.SourceClasses, opts.SourceScheme = req.Classes, req.Scheme
		if len(opts.TargetCorpora) == 0 && s.Tenants != nil {
			opts.TargetCorpora = s.Tenants.Targets(s.corpus(opts.SourceCorpus))
		}
	}
	return opts, err
}

// ParseLinkOptions resolves the mode and format names every door accepts
// (the XML attributes, the JSON fields, the CLI flags) into link options. A
// name it does not know is an *InvalidError.
func ParseLinkOptions(mode, format string) (core.LinkOptions, error) {
	var opts core.LinkOptions
	switch strings.ToLower(mode) {
	case "", "default":
	case "lexical":
		opts.Mode = core.ModeLexical
	case "steered":
		opts.Mode = core.ModeSteered
	case "steered+policies", "full":
		opts.Mode = core.ModeSteeredPolicies
	default:
		return opts, &InvalidError{fmt.Sprintf("unknown mode %q", mode)}
	}
	switch strings.ToLower(format) {
	case "", "html":
	case "markdown", "md":
		f := render.Markdown
		opts.Format = &f
	default:
		return opts, &InvalidError{fmt.Sprintf("unknown format %q", format)}
	}
	return opts, nil
}
