package client

import (
	"errors"
	"fmt"

	"nnexus/internal/core"
	"nnexus/internal/corpus"
	"nnexus/internal/tokenizer"
	"nnexus/internal/wire"
)

// Sharded is the network core.ShardBackend: one Client per shard's
// replication group, indexed by shard ID. Each client may itself be
// replica-aware and failover-aware (WithReplicas), so shardScan
// load-balances across the shard's caught-up followers, putEntry routes to
// the shard's current primary with notPrimary redirect handling, and a
// shard primary's death is ridden out by the same election machinery as an
// unsharded deployment — the sharding layer adds routing on top, not a new
// replication protocol. The per-shard deadline of a scatter-gather read is
// each client's call timeout (WithCallTimeout).
type Sharded struct {
	Clients []*Client
}

var _ core.ShardBackend = (*Sharded)(nil)

// NewSharded wraps one client per shard, in shard-ID order.
func NewSharded(clients []*Client) *Sharded {
	return &Sharded{Clients: clients}
}

// Close closes every shard client.
func (s *Sharded) Close() error {
	var first error
	for _, c := range s.Clients {
		if c == nil {
			continue
		}
		if err := c.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

func (s *Sharded) client(id int) (*Client, error) {
	if id < 0 || id >= len(s.Clients) || s.Clients[id] == nil {
		return nil, fmt.Errorf("client: no client for shard %d", id)
	}
	return s.Clients[id], nil
}

// ScanShard sends the router's tokenization to one shard and returns its
// resolved matches (see core.ShardRouter). Word IDs do not leave the
// process: each token goes as its span and its normal form.
func (s *Sharded) ScanShard(id int, dst []core.ResolvedMatch, text string, tokens []tokenizer.Token, opts core.LinkOptions) ([]core.ResolvedMatch, error) {
	c, err := s.client(id)
	if err != nil {
		return dst, err
	}
	req := &wire.Request{
		Method:  wire.MethodShardScan,
		Corpus:  opts.SourceCorpus,
		Targets: opts.TargetCorpora,
		Classes: opts.SourceClasses,
		Scheme:  opts.SourceScheme,
		Object:  opts.ExcludeObject,
		Tokens:  make([]wire.Token, len(tokens)),
	}
	if opts.Mode != core.ModeDefault {
		req.Mode = opts.Mode.String()
	}
	for i, t := range tokens {
		req.Tokens[i] = wire.Token{Norm: t.NormalForm(text), Start: t.Start, End: t.End}
	}
	resp, err := c.call(req)
	if err != nil {
		return dst, err
	}
	for _, m := range resp.Matches {
		rm := core.ResolvedMatch{
			Label:      m.Label,
			TokenStart: m.TokenStart,
			TokenEnd:   m.TokenEnd,
			ByteStart:  m.ByteStart,
			ByteEnd:    m.ByteEnd,
			Skip:       m.Skip,
		}
		if m.Skip == "" {
			rm.Link = core.Link{
				Label:        m.Label,
				Start:        m.ByteStart,
				End:          m.ByteEnd,
				Target:       m.Target,
				TargetDomain: m.Domain,
				TargetTitle:  m.Title,
				URL:          m.URL,
				Distance:     m.Distance,
				Candidates:   m.Candidates,
			}
		}
		dst = append(dst, rm)
	}
	return dst, nil
}

// PutEntry upserts an entry projection (with its router-assigned ID) on
// one shard's primary.
func (s *Sharded) PutEntry(id int, entry *corpus.Entry) error {
	c, err := s.client(id)
	if err != nil {
		return err
	}
	if entry.ID <= 0 {
		return errors.New("client: putEntry needs a router-assigned ID")
	}
	_, err = c.call(&wire.Request{Method: wire.MethodPutEntry, Entry: wire.FromCorpus(entry)})
	return err
}

// AddDomain registers a domain on one shard's primary.
func (s *Sharded) AddDomain(id int, d corpus.Domain) error {
	c, err := s.client(id)
	if err != nil {
		return err
	}
	return c.AddDomain(d)
}

// MaxObjectID fetches the highest entry ID one shard holds.
func (s *Sharded) MaxObjectID(id int) (int64, error) {
	c, err := s.client(id)
	if err != nil {
		return 0, err
	}
	stats, err := c.Stats()
	if err != nil {
		return 0, err
	}
	return stats.MaxObject, nil
}
