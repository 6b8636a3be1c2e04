// Package wire defines the XML request/response protocol NNexus speaks over
// socket connections (paper §3.1: "NNexus uses simple XML formats for its
// communications and configuration. ... All communications with NNexus are
// over socket connections, and all requests and responses with the NNexus
// server are in XML format").
//
// A connection carries a sequence of <request> documents from the client
// and a sequence of <response> documents from the server, in order. Every
// request names a method; the fields used depend on the method:
//
//	ping        — liveness check
//	addDomain   — Domain
//	addEntry    — Entry (engine assigns the ID, returned in Object)
//	updateEntry — Entry (with ID)
//	removeEntry — Object
//	getEntry    — Object
//	setPolicy   — Object, Policy
//	linkEntry   — Object, Mode, Format
//	linkText    — Text, Classes, Scheme, Mode, Format
//	invalidated — (none)
//	relink      — (none; relinks all invalidated entries)
//	stats       — (none)
//	addEntries  — Entries (engine assigns IDs, returned in Objects)
//	linkBatch   — Texts, Classes, Scheme, Mode, Format (results in Batch)
//	relinkBatch — Objects (empty = all invalidated; relinked IDs in Objects)
//
// Replication methods (see internal/replication):
//
//	replSubscribe — Offset, Epoch, MaxRecords, WaitMillis, Follower; the
//	                primary returns WAL records from Offset on (long-polling
//	                up to WaitMillis when caught up), or Reset=true when the
//	                follower must snapshot-bootstrap
//	replSnapshot  — (none); full state export for follower bootstrap
//	replAck       — Follower, Offset, Epoch; reports the follower's applied
//	                offset for lag accounting
//	replStatus    — (none); the node's replication role, epoch, head and
//	                applied offset (serves lag probes and routing)
//
// Election methods (automatic failover; see internal/replication):
//
//	replVote — Epoch (the candidate's proposed new epoch), Offset (the
//	           candidate's applied WAL offset), Candidate; the voter answers
//	           Granted=true when it has not voted in that epoch and the
//	           candidate's history is at least as fresh as its own
//	replLead — Epoch, Leader; a freshly promoted primary announces itself.
//	           A node holding a higher epoch rejects with code staleEpoch,
//	           which is how a returning stale primary learns it was fenced
package wire

import (
	"encoding/base64"
	"fmt"

	"nnexus/internal/corpus"
)

// Method names.
const (
	MethodPing        = "ping"
	MethodAddDomain   = "addDomain"
	MethodAddEntry    = "addEntry"
	MethodUpdateEntry = "updateEntry"
	MethodRemoveEntry = "removeEntry"
	MethodGetEntry    = "getEntry"
	MethodSetPolicy   = "setPolicy"
	MethodLinkEntry   = "linkEntry"
	MethodLinkText    = "linkText"
	MethodInvalidated = "invalidated"
	MethodRelink      = "relink"
	MethodStats       = "stats"
	MethodAddEntries  = "addEntries"
	MethodLinkBatch   = "linkBatch"
	MethodRelinkBatch = "relinkBatch"

	MethodReplSubscribe = "replSubscribe"
	MethodReplSnapshot  = "replSnapshot"
	MethodReplAck       = "replAck"
	MethodReplStatus    = "replStatus"
	MethodReplVote      = "replVote"
	MethodReplLead      = "replLead"
)

// Kind is what a method does to the replication group, which decides where
// a client sends it, whether it is retried, and how a server admits it. The
// zero Kind is no method of the protocol.
type Kind uint8

const (
	// KindWrite changes the collection or its invalidation queue: it runs
	// only on the primary, a quorum acknowledges it, and a request whose fate
	// is unknown is never re-sent.
	KindWrite Kind = iota + 1
	// KindRead reads the collection's logical state: any caught-up replica
	// may answer it, and it is safe to re-send.
	KindRead
	// KindNodeRead describes the node that answers it, so it stays on the
	// node it was sent to.
	KindNodeRead
	// KindControl is liveness, replication and election traffic between
	// nodes: node-pinned and charged to no tenant. It is safe to re-send: a
	// subscribe or a snapshot reads, an ack only ratchets an offset up, a
	// voter re-grants the same (epoch, candidate) pair, and a leadership
	// announcement for an adopted epoch is a no-op.
	KindControl
)

// Methods maps every method of the protocol to its kind: the one table a new
// method is added to. Routing, retries, tenant admission and the server's
// per-method counters all read it.
var Methods = map[string]Kind{
	MethodAddDomain:   KindWrite,
	MethodAddEntry:    KindWrite,
	MethodUpdateEntry: KindWrite,
	MethodRemoveEntry: KindWrite,
	MethodSetPolicy:   KindWrite,
	MethodRelink:      KindWrite,
	MethodAddEntries:  KindWrite,
	MethodRelinkBatch: KindWrite,

	MethodGetEntry:    KindRead,
	MethodLinkEntry:   KindRead,
	MethodLinkText:    KindRead,
	MethodLinkBatch:   KindRead,
	MethodInvalidated: KindRead,

	MethodStats: KindNodeRead,

	MethodPing:          KindControl,
	MethodReplSubscribe: KindControl,
	MethodReplSnapshot:  KindControl,
	MethodReplAck:       KindControl,
	MethodReplStatus:    KindControl,
	MethodReplVote:      KindControl,
	MethodReplLead:      KindControl,
}

// Mutating reports whether method is a KindWrite method.
func Mutating(method string) bool { return Methods[method] == KindWrite }

// Replication roles carried in ReplPayload.Role.
const (
	RolePrimary  = "primary"
	RoleFollower = "follower"
	RoleSingle   = "single"
)

// Request is one client→server message.
type Request struct {
	// XMLName names the root element. The xml tags on this and every type
	// below are the schema: the codec (encode.go, decode.go) follows them by
	// hand, and the test-side encoding/xml reference reads them by reflection.
	XMLName struct{} `xml:"request"`
	// Seq correlates responses with requests on a pipelined connection.
	Seq int64 `xml:"seq,attr,omitempty"`
	// Method selects the operation.
	Method string `xml:"method,attr"`

	// Domain and Entry are the document model's own types: their xml tags
	// (internal/corpus) are this protocol's domain and entry elements.
	Domain  *corpus.Domain `xml:"domain,omitempty"`
	Entry   *corpus.Entry  `xml:"entry,omitempty"`
	Object  int64          `xml:"object,omitempty"`
	Policy  string         `xml:"policy,omitempty"`
	Text    string         `xml:"text,omitempty"`
	Classes []string       `xml:"class,omitempty"`
	Scheme  string         `xml:"scheme,omitempty"`
	Mode    string         `xml:"mode,omitempty"`
	Format  string         `xml:"format,omitempty"`

	// Corpus names the tenant corpus the request acts on behalf of: the
	// source corpus of link methods and the rate-limit/quota accounting
	// label of every method. Empty means the server's default corpus, which
	// is how pre-tenancy clients keep working unchanged.
	Corpus string `xml:"corpus,attr,omitempty"`
	// Targets is the ordered cross-corpus link policy of link methods: the
	// corpora to link against, earlier ones winning equal-span ties. Empty
	// means self-linking (Corpus only).
	Targets []string `xml:"targets>corpus,omitempty"`

	// Batch fields: Entries for addEntries, Texts for linkBatch, Objects
	// for relinkBatch (empty Objects = relink everything invalidated).
	Entries []*corpus.Entry `xml:"entries>entry,omitempty"`
	Texts   []string        `xml:"texts>text,omitempty"`
	Objects []int64         `xml:"objects>object,omitempty"`

	// Replication fields (repl* methods). Offset is the first record offset
	// the follower wants (replSubscribe) or its newest applied offset
	// (replAck); Epoch is the primary epoch the follower last synced under;
	// MaxRecords caps a subscribe batch; WaitMillis makes a caught-up
	// subscribe long-poll for new records; Follower names the subscriber
	// for lag accounting.
	Offset     uint64 `xml:"offset,attr,omitempty"`
	Epoch      uint64 `xml:"epoch,attr,omitempty"`
	MaxRecords int    `xml:"maxrecords,attr,omitempty"`
	WaitMillis int    `xml:"waitmillis,attr,omitempty"`
	Follower   string `xml:"follower,attr,omitempty"`

	// Election fields: Candidate is the proposing node's advertised address
	// (replVote, with Epoch the proposed epoch and Offset the candidate's
	// applied WAL offset); Leader is the freshly promoted primary's address
	// (replLead, with Epoch the won epoch).
	Candidate string `xml:"candidate,attr,omitempty"`
	Leader    string `xml:"leader,attr,omitempty"`
}

// Error codes carried in Response.Code. They classify error responses so
// clients can react mechanically: an "overloaded" or "rateLimited" error is
// transient (the request was rejected before execution and is safe to retry,
// even for mutating methods), and an "internal" error is a server-side
// failure. Older servers omit the code.
const (
	// CodeOverloaded: the node shed the request before dispatching it
	// because its in-flight bound was reached. Safe to retry after backoff.
	CodeOverloaded = "overloaded"
	// CodeInternal: the handler failed unexpectedly (e.g. a recovered
	// panic).
	CodeInternal = "internal"
	// CodeNotPrimary: a mutating method reached a follower. The request was
	// rejected before execution; Response.Leader carries the primary's
	// address when the follower knows it.
	CodeNotPrimary = "notPrimary"
	// CodeStaleEpoch: the request carried a replication epoch older than the
	// node's — a fenced message from a deposed primary or a lost election.
	// The sender must re-discover the current leader before retrying.
	CodeStaleEpoch = "staleEpoch"
	// CodeQuorumUnavailable: the write is durable on the primary but fewer
	// than the configured quorum of followers confirmed the offset within
	// the commit timeout. The mutation is applied and will replicate; only
	// the quorum guarantee is degraded, so the caller must not assume the
	// write survives a primary failover.
	CodeQuorumUnavailable = "quorumUnavailable"
	// CodeRateLimited: the request's corpus is over its tenant rate limit.
	// Rejected before execution — safe to retry after backoff, even for
	// mutating methods (same contract as overloaded).
	CodeRateLimited = "rateLimited"
	// CodeQuotaExceeded: the write would push its corpus past a tenant
	// entry-count or byte quota. Rejected before execution; retrying without
	// freeing space or raising the quota will fail again.
	CodeQuotaExceeded = "quotaExceeded"
	// CodeFailed: the node's engine stopped when its store refused a write
	// (a WAL append or fsync error), and refuses every request until it is
	// restarted. The write that stopped it may or may not be in the log, so
	// it is not retryable, here or elsewhere, without reading back first.
	CodeFailed = "failed"
)

// Response is one server→client message.
type Response struct {
	XMLName struct{} `xml:"response"`
	Seq     int64    `xml:"seq,attr,omitempty"`
	// Status is "ok" or "error".
	Status string `xml:"status,attr"`
	// Code classifies error responses (see the Code* constants); empty on
	// success and on untyped errors from older servers.
	Code  string `xml:"code,attr,omitempty"`
	Error string `xml:"error,omitempty"`

	Object      int64         `xml:"object,omitempty"`
	Entry       *corpus.Entry `xml:"entry,omitempty"`
	Linked      *Linked       `xml:"linked,omitempty"`
	Stats       *Stats        `xml:"stats,omitempty"`
	Invalidated []int64       `xml:"invalidated>object,omitempty"`

	// Batch fields: Objects carries assigned IDs (addEntries) or relinked
	// IDs (relinkBatch); Batch carries per-text results (linkBatch), in
	// request order.
	Objects []int64   `xml:"objects>object,omitempty"`
	Batch   []*Linked `xml:"batch>linked,omitempty"`

	// Replication fields: Repl carries repl* method payloads; Leader names
	// the primary's address on notPrimary errors (and in replStatus from a
	// follower), when known.
	Repl   *ReplPayload `xml:"repl,omitempty"`
	Leader string       `xml:"leader,omitempty"`
}

// ReplPayload is the payload of the repl* methods.
type ReplPayload struct {
	// Role is the node's replication role: "primary", "follower" or
	// "single" (replication not configured).
	Role string `xml:"role,attr,omitempty"`
	// Epoch identifies one continuous streamed history; a follower synced
	// under an older epoch must discard its offsets and re-bootstrap.
	Epoch uint64 `xml:"epoch,attr"`
	// Head is the newest applied record offset on the answering node's
	// upstream history (on a primary: its own; on a follower replStatus:
	// the primary head it last observed).
	Head uint64 `xml:"head,attr"`
	// Applied is the follower's own applied offset (replStatus only).
	Applied uint64 `xml:"applied,attr,omitempty"`
	// Stale marks a follower whose last exchange with its primary failed:
	// Head (and so any lag computed from it) may be out of date. Routing
	// layers treat a stale follower as ineligible while the primary lives.
	Stale bool `xml:"stale,attr,omitempty"`
	// Reset tells a subscribing follower its offset or epoch is unusable:
	// fetch a replSnapshot and restart from the snapshot's head.
	Reset bool `xml:"reset,attr,omitempty"`
	// Granted reports a replVote verdict: true when the voter granted the
	// candidate's proposed epoch. On rejection, Epoch/Applied carry the
	// voter's own position so the candidate can tell why it lost.
	Granted bool `xml:"granted,attr,omitempty"`
	// Records are WAL records at consecutive offsets (replSubscribe).
	Records []ReplRecord `xml:"record,omitempty"`
	// Snap is a full state export (replSnapshot), positioned at Head.
	Snap []SnapOp `xml:"snap>op,omitempty"`
}

// ReplRecord is one encoded WAL record body in transit, base64-wrapped so
// arbitrary bytes survive the XML layer.
type ReplRecord struct {
	Offset uint64 `xml:"offset,attr"`
	Body   string `xml:",chardata"`
}

// NewReplRecord wraps a raw WAL record body for the wire.
func NewReplRecord(offset uint64, body []byte) ReplRecord {
	return ReplRecord{Offset: offset, Body: base64.StdEncoding.EncodeToString(body)}
}

// DecodeBody unwraps the raw WAL record body.
func (r *ReplRecord) DecodeBody() ([]byte, error) {
	b, err := base64.StdEncoding.DecodeString(r.Body)
	if err != nil {
		return nil, fmt.Errorf("wire: repl record body: %w", err)
	}
	return b, nil
}

// SnapOp is one key of a snapshot export: a put of Value under (Table, Key)
// (Delete is carried for completeness; exports only contain puts).
type SnapOp struct {
	Table  string `xml:"table,attr"`
	Key    string `xml:"key,attr"`
	Delete bool   `xml:"delete,attr,omitempty"`
	Value  string `xml:",chardata"`
}

// NewSnapOp wraps a raw table value for the wire.
func NewSnapOp(table, key string, value []byte) SnapOp {
	return SnapOp{Table: table, Key: key, Value: base64.StdEncoding.EncodeToString(value)}
}

// DecodeValue unwraps the raw table value.
func (o *SnapOp) DecodeValue() ([]byte, error) {
	b, err := base64.StdEncoding.DecodeString(o.Value)
	if err != nil {
		return nil, fmt.Errorf("wire: snapshot value: %w", err)
	}
	return b, nil
}

// Linked carries a linking result.
type Linked struct {
	Output string     `xml:"output"`
	Links  []LinkInfo `xml:"link,omitempty"`
	Skips  []SkipInfo `xml:"skip,omitempty"`
}

// LinkInfo describes one created link.
type LinkInfo struct {
	Label    string `xml:"label,attr"`
	Start    int    `xml:"start,attr"`
	End      int    `xml:"end,attr"`
	Target   int64  `xml:"target,attr"`
	Domain   string `xml:"domain,attr,omitempty"`
	URL      string `xml:"url,attr"`
	Distance int64  `xml:"distance,attr,omitempty"`
}

// SkipInfo describes one suppressed match.
type SkipInfo struct {
	Label  string `xml:"label,attr"`
	Reason string `xml:"reason,attr"`
}

// Stats carries collection statistics. The telemetry fields (cache and
// link counters) are cumulative since server start; older servers omit
// them, so clients must treat zero as "not reported".
type Stats struct {
	Entries     int `xml:"entries"`
	Concepts    int `xml:"concepts"`
	Domains     int `xml:"domains"`
	Invalidated int `xml:"invalidated"`

	CacheHits    int64 `xml:"cachehits,omitempty"`
	CacheMisses  int64 `xml:"cachemisses,omitempty"`
	LinksCreated int64 `xml:"linkscreated,omitempty"`
	TextsLinked  int64 `xml:"textslinked,omitempty"`
}

// OK builds a success response for a request.
func OK(req *Request) *Response {
	return &Response{Seq: req.Seq, Status: "ok"}
}

// Err builds an error response for a request.
func Err(req *Request, err error) *Response {
	return &Response{Seq: req.Seq, Status: "error", Error: err.Error()}
}

// ErrCoded builds a typed error response for a request.
func ErrCoded(req *Request, code string, err error) *Response {
	return &Response{Seq: req.Seq, Status: "error", Code: code, Error: err.Error()}
}

// IsOK reports whether the response indicates success.
func (r *Response) IsOK() bool { return r.Status == "ok" }
