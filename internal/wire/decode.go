package wire

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"strconv"
	"unsafe"

	"nnexus/internal/corpus"
)

// ErrTooLarge is returned (wrapped) by Decode when a message is longer than
// the decoder's limit.
var ErrTooLarge = errors.New("message exceeds size limit")

// Decoder reads a stream of XML messages: a single-pass pull parser over its
// own read buffer for the fixed Request / Response schema of wire.go. It
// accepts what encoding/xml accepted for those structs — a prolog, comments
// and processing instructions anywhere, either quote, CDATA, the five named
// and all numeric character references, namespace prefixes (ignored),
// children in any order, repeated scalars (the last wins), unknown elements
// and attributes (skipped) — except document type declarations and names
// outside ASCII, which it refuses (DESIGN.md "The XML it speaks").
//
// The first error is final: a stream that failed to parse has no next
// message.
type Decoder struct {
	r    io.Reader
	buf  []byte // read window
	pos  int    // next unread byte of buf
	lim  int    // first byte of buf the current message may not read; ≤ end, 0 once failed
	end  int    // end of the read bytes in buf
	rerr error  // r's error, due once the window is consumed
	err  error  // the first error; sticky

	max   int64 // byte limit of one message; 0 = none
	inMsg bool  // between a message's first byte and its last
	used  int64 // bytes of the message before buf[0] (negative: it starts inside buf)

	name    []byte // the last name read; of an element or attribute, its local part
	nameBuf []byte // name's storage when it is not read in place, prefix included
	val     []byte // the last attribute value: in the read window, or in vbuf
	vbuf    []byte // val's storage when it is not read in place; character data nobody keeps
	text    []byte // character data of the element being read as a scalar
	open    []byte // names of the open elements, concatenated
	marks   []int  // where each of them starts in open
	inTag   bool   // inside a start tag, behind its name or an attribute
	empty   bool   // the start tag just read closed itself with />

	// The short strings of the <linked> being read, which become one string,
	// and where each <link>'s (label, domain, url) and each <skip>'s (label,
	// reason) lie in it.
	strs      []byte
	linkSpans []span
	skipSpans []span
}

// span is where a string lies in Decoder.strs.
type span struct{ from, to int }

func (s span) of(str string) string { return str[s.from:s.to] }

// NewDecoder wraps a reader.
func NewDecoder(r io.Reader) *Decoder {
	return &Decoder{r: r, buf: make([]byte, 4096)}
}

// SetLimit bounds every following message to n bytes, counted from its
// first byte that is not white space to the '>' that ends it — whatever was
// read ahead of it or behind it. A longer message fails Decode with
// ErrTooLarge before the byte past the limit is looked at. Zero or less
// removes the bound.
func (d *Decoder) SetLimit(n int64) { d.max = max(n, 0) }

// Decode reads the next message into v, a *Request or a *Response. Fields
// the message does not mention keep what v held. io.EOF signals a cleanly
// closed stream.
func (d *Decoder) Decode(v interface{}) error {
	switch m := v.(type) {
	case *Request:
		d.message("request", func() { d.request(m) })
	case *Response:
		d.message("response", func() { d.response(m) })
	default:
		return fmt.Errorf("wire: decode: not a message: %T", v)
	}
	return d.done()
}

// done ends a Decode or a DecodeRecord: it lets go of the scratch buffers
// that outgrew their bound and returns the error to report.
func (d *Decoder) done() error {
	d.name, d.val = nil, nil
	release(&d.nameBuf)
	release(&d.vbuf)
	release(&d.text)
	release(&d.open)
	release(&d.marks)
	release(&d.strs)
	release(&d.linkSpans)
	release(&d.skipSpans)
	if d.err == io.EOF {
		return io.EOF
	}
	if d.err != nil {
		return fmt.Errorf("wire: decode: %w", d.err)
	}
	return nil
}

// message skips to the root element, checks its name and runs body on it.
// The stream ending between messages, or inside text before one, is a clean
// io.EOF; ending anywhere else is an error.
func (d *Decoder) message(root string, body func()) {
	for d.err == nil {
		c, ok := d.getc()
		if !ok {
			return
		}
		if !d.inMsg {
			if isSpace(c) {
				continue
			}
			d.inMsg, d.used = true, -int64(d.pos-1)
			d.setLimit()
		}
		if c != '<' {
			d.pos--
			d.vbuf = d.charData(d.vbuf[:0], -1, false)
			continue
		}
		if !d.markup(false) {
			continue
		}
		if string(d.name) != root {
			d.fail("expected element type <" + root + "> but have <" + string(d.name) + ">")
			return
		}
		body()
		if d.err == io.EOF {
			d.fail("unexpected EOF")
		}
		d.inMsg = false
		d.setLimit()
		return
	}
}

// --- the schema ---

func (d *Decoder) request(r *Request) {
	for d.attr() {
		switch string(d.name) {
		case "seq":
			r.Seq = d.intVal(d.val)
		case "method":
			r.Method = string(d.val)
		case "corpus":
			r.Corpus = string(d.val)
		case "offset":
			r.Offset = d.uintVal(d.val)
		case "epoch":
			r.Epoch = d.uintVal(d.val)
		case "maxrecords":
			r.MaxRecords = int(d.intVal(d.val))
		case "waitmillis":
			r.WaitMillis = int(d.intVal(d.val))
		case "follower":
			r.Follower = string(d.val)
		case "candidate":
			r.Candidate = string(d.val)
		case "leader":
			r.Leader = string(d.val)
		}
	}
	for d.child(false) {
		switch string(d.name) {
		case "domain":
			if r.Domain == nil {
				r.Domain = new(corpus.Domain)
			}
			d.domain(r.Domain)
		case "entry":
			if r.Entry == nil {
				r.Entry = new(corpus.Entry)
			}
			d.entry(r.Entry)
		case "object":
			r.Object = d.intVal(d.scalar())
		case "policy":
			r.Policy = string(d.scalar())
		case "text":
			r.Text = string(d.scalar())
		case "class":
			r.Classes = append(r.Classes, string(d.scalar()))
		case "scheme":
			r.Scheme = string(d.scalar())
		case "mode":
			r.Mode = string(d.scalar())
		case "format":
			r.Format = string(d.scalar())
		case "targets":
			for d.wrapped("corpus") {
				r.Targets = append(r.Targets, string(d.scalar()))
			}
		case "entries":
			for d.wrapped("entry") {
				e := new(corpus.Entry)
				r.Entries = append(r.Entries, e)
				d.entry(e)
			}
		case "texts":
			for d.wrapped("text") {
				r.Texts = append(r.Texts, string(d.scalar()))
			}
		case "objects":
			for d.wrapped("object") {
				r.Objects = append(r.Objects, d.intVal(d.scalar()))
			}
		default:
			d.skip()
		}
	}
}

func (d *Decoder) response(r *Response) {
	for d.attr() {
		switch string(d.name) {
		case "seq":
			r.Seq = d.intVal(d.val)
		case "status":
			r.Status = string(d.val)
		case "code":
			r.Code = string(d.val)
		}
	}
	for d.child(false) {
		switch string(d.name) {
		case "error":
			r.Error = string(d.scalar())
		case "object":
			r.Object = d.intVal(d.scalar())
		case "entry":
			if r.Entry == nil {
				r.Entry = new(corpus.Entry)
			}
			d.entry(r.Entry)
		case "linked":
			if r.Linked == nil {
				r.Linked = new(Linked)
			}
			d.linked(r.Linked)
		case "stats":
			if r.Stats == nil {
				r.Stats = new(Stats)
			}
			d.stats(r.Stats)
		case "invalidated":
			for d.wrapped("object") {
				r.Invalidated = append(r.Invalidated, d.intVal(d.scalar()))
			}
		case "objects":
			for d.wrapped("object") {
				r.Objects = append(r.Objects, d.intVal(d.scalar()))
			}
		case "batch":
			for d.wrapped("linked") {
				l := new(Linked)
				r.Batch = append(r.Batch, l)
				d.linked(l)
			}
		case "repl":
			if r.Repl == nil {
				r.Repl = new(ReplPayload)
			}
			d.repl(r.Repl)
		case "leader":
			r.Leader = string(d.scalar())
		default:
			d.skip()
		}
	}
}

func (d *Decoder) domain(m *corpus.Domain) {
	for d.attr() {
		if string(d.name) == "name" {
			m.Name = string(d.val)
		}
	}
	for d.child(false) {
		switch string(d.name) {
		case "urltemplate":
			m.URLTemplate = string(d.scalar())
		case "scheme":
			m.Scheme = string(d.scalar())
		case "priority":
			m.Priority = int(d.intVal(d.scalar()))
		default:
			d.skip()
		}
	}
}

func (d *Decoder) entry(e *corpus.Entry) {
	for d.attr() {
		switch string(d.name) {
		case "id":
			e.ID = d.intVal(d.val)
		case "corpus":
			e.Corpus = string(d.val)
		case "domain":
			e.Domain = string(d.val)
		case "externalid":
			e.ExternalID = string(d.val)
		}
	}
	for d.child(false) {
		switch string(d.name) {
		case "title":
			e.Title = string(d.scalar())
		case "concept":
			e.Concepts = append(e.Concepts, string(d.scalar()))
		case "class":
			e.Classes = append(e.Classes, string(d.scalar()))
		case "body":
			e.Body = string(d.scalar())
		case "policy":
			e.Policy = string(d.scalar())
		default:
			d.skip()
		}
	}
}

// linked reads a <linked>. Its labels, domains, URLs and skip reasons are
// gathered in d.strs and become one string, which they share; the output,
// the only long string, keeps its own.
func (d *Decoder) linked(l *Linked) {
	links, skips := len(l.Links), len(l.Skips)
	d.strs, d.linkSpans, d.skipSpans = d.strs[:0], d.linkSpans[:0], d.skipSpans[:0]
	for d.child(false) {
		switch string(d.name) {
		case "output":
			l.Output = string(d.scalar())
		case "link":
			l.Links = append(l.Links, LinkInfo{})
			k := &l.Links[len(l.Links)-1]
			d.linkSpans = append(d.linkSpans, span{}, span{}, span{})
			sp := d.linkSpans[len(d.linkSpans)-3:]
			for d.attr() {
				switch string(d.name) {
				case "label":
					sp[0] = d.gather()
				case "start":
					k.Start = int(d.intVal(d.val))
				case "end":
					k.End = int(d.intVal(d.val))
				case "target":
					k.Target = d.intVal(d.val)
				case "domain":
					sp[1] = d.gather()
				case "url":
					sp[2] = d.gather()
				case "distance":
					k.Distance = d.intVal(d.val)
				}
			}
			d.skip()
		case "skip":
			l.Skips = append(l.Skips, SkipInfo{})
			d.skipSpans = append(d.skipSpans, span{}, span{})
			sp := d.skipSpans[len(d.skipSpans)-2:]
			for d.attr() {
				switch string(d.name) {
				case "label":
					sp[0] = d.gather()
				case "reason":
					sp[1] = d.gather()
				}
			}
			d.skip()
		default:
			d.skip()
		}
	}
	str := string(d.strs)
	for i, k := 0, l.Links[links:]; i < len(k); i++ {
		sp := d.linkSpans[3*i:]
		k[i].Label, k[i].Domain, k[i].URL = sp[0].of(str), sp[1].of(str), sp[2].of(str)
	}
	for i, s := 0, l.Skips[skips:]; i < len(s); i++ {
		sp := d.skipSpans[2*i:]
		s[i].Label, s[i].Reason = sp[0].of(str), sp[1].of(str)
	}
}

// gather appends the attribute value just read to d.strs, saying where.
func (d *Decoder) gather() span {
	d.strs = append(d.strs, d.val...)
	return span{len(d.strs) - len(d.val), len(d.strs)}
}

func (d *Decoder) stats(s *Stats) {
	for d.child(false) {
		switch string(d.name) {
		case "entries":
			s.Entries = int(d.intVal(d.scalar()))
		case "concepts":
			s.Concepts = int(d.intVal(d.scalar()))
		case "domains":
			s.Domains = int(d.intVal(d.scalar()))
		case "invalidated":
			s.Invalidated = int(d.intVal(d.scalar()))
		case "cachehits":
			s.CacheHits = d.intVal(d.scalar())
		case "cachemisses":
			s.CacheMisses = d.intVal(d.scalar())
		case "linkscreated":
			s.LinksCreated = d.intVal(d.scalar())
		case "textslinked":
			s.TextsLinked = d.intVal(d.scalar())
		default:
			d.skip()
		}
	}
}

func (d *Decoder) repl(p *ReplPayload) {
	for d.attr() {
		switch string(d.name) {
		case "role":
			p.Role = string(d.val)
		case "epoch":
			p.Epoch = d.uintVal(d.val)
		case "head":
			p.Head = d.uintVal(d.val)
		case "applied":
			p.Applied = d.uintVal(d.val)
		case "stale":
			p.Stale = d.boolVal(d.val)
		case "reset":
			p.Reset = d.boolVal(d.val)
		case "granted":
			p.Granted = d.boolVal(d.val)
		}
	}
	for d.child(false) {
		switch string(d.name) {
		case "record":
			p.Records = append(p.Records, ReplRecord{})
			rec := &p.Records[len(p.Records)-1]
			for d.attr() {
				if string(d.name) == "offset" {
					rec.Offset = d.uintVal(d.val)
				}
			}
			rec.Body = string(d.scalar())
		case "snap":
			for d.wrapped("op") {
				p.Snap = append(p.Snap, SnapOp{})
				op := &p.Snap[len(p.Snap)-1]
				for d.attr() {
					switch string(d.name) {
					case "table":
						op.Table = string(d.val)
					case "key":
						op.Key = string(d.val)
					case "delete":
						op.Delete = d.boolVal(d.val)
					}
				}
				op.Value = string(d.scalar())
			}
		default:
			d.skip()
		}
	}
}

// --- elements ---
//
// After child (or wrapped, or the root's markup) returned true the decoder
// stands behind a start tag's name, d.name holding its local part. The
// element is consumed by attr until it returns false, for those who want its
// attributes, and then by child until it returns false; scalar, content and
// skip are that second loop for the elements that have no fields.

// attr reads the next attribute of the open start tag into d.name and d.val,
// returning false at the end of the tag.
func (d *Decoder) attr() bool {
	if !d.inTag {
		return false
	}
	d.space()
	if d.plainAttr() {
		return true
	}
	c, ok := d.mustGetc()
	if !ok {
		return false
	}
	switch c {
	case '/':
		if c, ok = d.mustGetc(); ok && c != '>' {
			d.fail("expected /> in element")
		}
		d.inTag, d.empty = false, true
		d.pop()
		return false
	case '>':
		d.inTag = false
		return false
	}
	d.pos--
	local, ok := d.readName(true)
	if !ok {
		d.fail("expected attribute name in element")
		return false
	}
	d.name = d.name[local:]
	d.space()
	if c, ok = d.mustGetc(); ok && c != '=' {
		d.fail("attribute name without = in element")
	}
	d.space()
	if c, ok = d.mustGetc(); ok && c != '"' && c != '\'' {
		d.fail("unquoted or missing attribute value in element")
	}
	d.vbuf = d.charData(d.vbuf[:0], int(c), false)
	d.val = d.vbuf
	return d.err == nil
}

// plainAttr is attr's fast path: name="value" (or 'value') lying whole in
// the read window, its name plain and its value printable ASCII with no '<',
// no other quote and only the references plainReference reads, is read in
// place. d.name points into the window, and so does d.val unless a
// reference had to be resolved into vbuf. Otherwise it reads nothing and
// returns false.
func (d *Decoder) plainAttr() bool {
	w := d.window()
	n := plainName(w)
	if n == 0 || n+2 > len(w) || w[n] != '=' || w[n+1] != '"' && w[n+1] != '\'' {
		return false
	}
	quote, from, lit := w[n+1], n+2, n+2 // lit: the bytes not yet copied to vbuf
	d.vbuf = d.vbuf[:0]
	for i := from; i < len(w); i++ {
		switch c := w[i]; {
		case c == quote:
			d.name, d.val = w[:n], w[from:i]
			if lit > from {
				d.vbuf = append(d.vbuf, w[lit:i]...)
				d.val = d.vbuf
			}
			d.pos += i + 1
			return true
		case c == '&':
			r, k := plainReference(w[i+1:])
			if k == 0 {
				return false
			}
			d.vbuf = append(append(d.vbuf, w[lit:i]...), r)
			i += k
			lit = i + 1
		case !plainValueBytes[c]:
			return false
		}
	}
	return false
}

// plainValueBytes are the bytes an attribute value read in place may hold.
var plainValueBytes = func() (t [256]bool) {
	for c := ' '; c <= '~'; c++ {
		t[c] = c != '&' && c != '<' && c != '"' && c != '\''
	}
	return t
}()

// child moves to the next child element of the open element, past what is
// left of its start tag, and returns false once its end tag is consumed.
// Character data on the way is appended to d.text when keep is set, and
// checked and dropped otherwise.
func (d *Decoder) child(keep bool) bool {
	for d.attr() {
	}
	if d.empty {
		d.empty = false
		return false
	}
	for d.err == nil {
		c, ok := d.mustGetc()
		if !ok {
			break
		}
		if c != '<' {
			d.pos--
			if keep {
				d.text = d.charData(d.text, -1, false)
			} else {
				d.vbuf = d.charData(d.vbuf[:0], -1, false)
			}
			continue
		}
		depth := len(d.marks)
		if d.markup(keep) {
			return true
		}
		if len(d.marks) < depth {
			break // that was the end tag
		}
	}
	return false
}

// wrapped iterates the <name> children of an a>b wrapper element, skipping
// every other child.
func (d *Decoder) wrapped(name string) bool {
	for d.child(false) {
		if string(d.name) == name {
			return true
		}
		d.skip()
	}
	return false
}

// scalar consumes the open element as a value: its character data with
// comments, instructions and child elements cut out. The result is valid
// until the next scalar.
func (d *Decoder) scalar() []byte {
	d.text = d.text[:0]
	for d.child(true) {
		d.skip()
	}
	return d.text
}

// skip consumes the open element and everything in it.
func (d *Decoder) skip() {
	for depth := 1; depth > 0 && d.err == nil; {
		if d.child(false) {
			depth++
		} else {
			depth--
		}
	}
}

func (d *Decoder) intVal(b []byte) int64 {
	if len(b) == 0 || d.err != nil {
		return 0
	}
	if n, ok := plainDigits(b); ok {
		return int64(n)
	}
	n, err := strconv.ParseInt(string(bytes.TrimSpace(b)), 10, 64)
	if err != nil {
		d.abort(err)
	}
	return n
}

func (d *Decoder) uintVal(b []byte) uint64 {
	if len(b) == 0 || d.err != nil {
		return 0
	}
	if n, ok := plainDigits(b); ok {
		return n
	}
	n, err := strconv.ParseUint(string(bytes.TrimSpace(b)), 10, 64)
	if err != nil {
		d.abort(err)
	}
	return n
}

// plainDigits parses what strconv would for a number of at most 18 decimal
// digits, no sign and no space around it, which cannot overflow an int64.
func plainDigits(b []byte) (n uint64, ok bool) {
	if len(b) > 18 {
		return 0, false
	}
	for _, c := range b {
		if !isDigit(c) {
			return 0, false
		}
		n = n*10 + uint64(c-'0')
	}
	return n, true
}

func (d *Decoder) boolVal(b []byte) bool {
	if len(b) == 0 || d.err != nil {
		return false
	}
	v, err := strconv.ParseBool(string(bytes.TrimSpace(b)))
	if err != nil {
		d.abort(err)
	}
	return v
}

// release drops a scratch buffer whose array has outgrown
// maxRetainedBuffer bytes: one deep or long message does not pin its
// megabytes to the connection for good.
func release[T any](buf *[]T) {
	var elem T
	if uintptr(cap(*buf))*unsafe.Sizeof(elem) > maxRetainedBuffer {
		*buf = nil
	}
}
