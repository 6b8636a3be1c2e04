package wire

import (
	"fmt"
	"io"
	"strconv"
	"unicode/utf8"

	"nnexus/internal/corpus"
)

// maxRetainedBuffer is the largest scratch buffer an Encoder or Decoder
// keeps between messages; one snapshot-sized message does not pin its
// megabytes to the connection for good.
const maxRetainedBuffer = 64 << 10

// Encoder writes a stream of XML messages.
type Encoder struct {
	w   io.Writer
	buf []byte
}

// NewEncoder wraps a writer.
func NewEncoder(w io.Writer) *Encoder {
	return &Encoder{w: w}
}

// Encode writes one message (a *Request or a *Response) followed by a
// newline separator, in one Write.
func (e *Encoder) Encode(v interface{}) error {
	buf, err := Append(e.buf[:0], v)
	if err != nil {
		return err
	}
	if cap(buf) <= maxRetainedBuffer {
		e.buf = buf
	} else {
		e.buf = nil
	}
	_, err = e.w.Write(buf)
	return err
}

// Append appends the XML form of one message (a *Request or a *Response)
// and its newline separator to dst. The bytes are what encoding/xml writes
// for the tags in wire.go, minus the empty <targets></targets>-style
// wrappers it emits for every empty a>b slice.
func Append(dst []byte, v interface{}) ([]byte, error) {
	switch m := v.(type) {
	case *Request:
		if m != nil {
			return append(appendRequest(dst, m), '\n'), nil
		}
	case *Response:
		if m != nil {
			return append(appendResponse(dst, m), '\n'), nil
		}
	}
	return dst, fmt.Errorf("wire: encode: not a message: %T", v)
}

func appendRequest(b []byte, r *Request) []byte {
	b = append(b, "<request"...)
	b = intAttr(b, "seq", r.Seq, true)
	b = strAttr(b, "method", r.Method, false)
	b = strAttr(b, "corpus", r.Corpus, true)
	b = uintAttr(b, "offset", r.Offset, true)
	b = uintAttr(b, "epoch", r.Epoch, true)
	b = intAttr(b, "maxrecords", int64(r.MaxRecords), true)
	b = intAttr(b, "waitmillis", int64(r.WaitMillis), true)
	b = strAttr(b, "follower", r.Follower, true)
	b = strAttr(b, "candidate", r.Candidate, true)
	b = strAttr(b, "leader", r.Leader, true)
	b = append(b, '>')
	b = appendDomain(b, r.Domain)
	b = appendEntry(b, r.Entry)
	b = intElem(b, "object", r.Object, true)
	b = strElem(b, "policy", r.Policy, true)
	b = strElem(b, "text", r.Text, true)
	b = strElems(b, "class", r.Classes)
	b = strElem(b, "scheme", r.Scheme, true)
	b = strElem(b, "mode", r.Mode, true)
	b = strElem(b, "format", r.Format, true)
	b, mark := openWrapper(b, "targets")
	b = closeWrapper(strElems(b, "corpus", r.Targets), mark, "targets")
	b, mark = openWrapper(b, "entries")
	for _, e := range r.Entries {
		b = appendEntry(b, e)
	}
	b = closeWrapper(b, mark, "entries")
	b, mark = openWrapper(b, "texts")
	b = closeWrapper(strElems(b, "text", r.Texts), mark, "texts")
	b = appendObjects(b, "objects", r.Objects)
	return append(b, "</request>"...)
}

func appendResponse(b []byte, r *Response) []byte {
	b = append(b, "<response"...)
	b = intAttr(b, "seq", r.Seq, true)
	b = strAttr(b, "status", r.Status, false)
	b = strAttr(b, "code", r.Code, true)
	b = append(b, '>')
	b = strElem(b, "error", r.Error, true)
	b = intElem(b, "object", r.Object, true)
	b = appendEntry(b, r.Entry)
	b = appendLinked(b, r.Linked)
	if s := r.Stats; s != nil {
		b = append(b, "<stats>"...)
		b = intElem(b, "entries", int64(s.Entries), false)
		b = intElem(b, "concepts", int64(s.Concepts), false)
		b = intElem(b, "domains", int64(s.Domains), false)
		b = intElem(b, "invalidated", int64(s.Invalidated), false)
		b = intElem(b, "cachehits", s.CacheHits, true)
		b = intElem(b, "cachemisses", s.CacheMisses, true)
		b = intElem(b, "linkscreated", s.LinksCreated, true)
		b = intElem(b, "textslinked", s.TextsLinked, true)
		b = append(b, "</stats>"...)
	}
	b = appendObjects(b, "invalidated", r.Invalidated)
	b = appendObjects(b, "objects", r.Objects)
	b, mark := openWrapper(b, "batch")
	for _, l := range r.Batch {
		b = appendLinked(b, l)
	}
	b = closeWrapper(b, mark, "batch")
	if p := r.Repl; p != nil {
		b = append(b, "<repl"...)
		b = strAttr(b, "role", p.Role, true)
		b = uintAttr(b, "epoch", p.Epoch, false)
		b = uintAttr(b, "head", p.Head, false)
		b = uintAttr(b, "applied", p.Applied, true)
		b = boolAttr(b, "stale", p.Stale)
		b = boolAttr(b, "reset", p.Reset)
		b = boolAttr(b, "granted", p.Granted)
		b = append(b, '>')
		for i := range p.Records {
			b = append(b, "<record"...)
			b = uintAttr(b, "offset", p.Records[i].Offset, false)
			b = append(b, '>')
			b = appendEscaped(b, p.Records[i].Body)
			b = append(b, "</record>"...)
		}
		b, mark = openWrapper(b, "snap")
		for i := range p.Snap {
			op := &p.Snap[i]
			b = append(b, "<op"...)
			b = strAttr(b, "table", op.Table, false)
			b = strAttr(b, "key", op.Key, false)
			b = boolAttr(b, "delete", op.Delete)
			b = append(b, '>')
			b = appendEscaped(b, op.Value)
			b = append(b, "</op>"...)
		}
		b = closeWrapper(b, mark, "snap")
		b = append(b, "</repl>"...)
	}
	b = strElem(b, "leader", r.Leader, true)
	return append(b, "</response>"...)
}

func appendDomain(b []byte, d *corpus.Domain) []byte {
	if d == nil {
		return b
	}
	b = append(b, "<domain"...)
	b = strAttr(b, "name", d.Name, false)
	b = append(b, '>')
	b = strElem(b, "urltemplate", d.URLTemplate, false)
	b = strElem(b, "scheme", d.Scheme, true)
	b = intElem(b, "priority", int64(d.Priority), true)
	return append(b, "</domain>"...)
}

func appendEntry(b []byte, e *corpus.Entry) []byte {
	if e == nil {
		return b
	}
	b = append(b, "<entry"...)
	b = intAttr(b, "id", e.ID, true)
	b = strAttr(b, "corpus", e.Corpus, true)
	b = strAttr(b, "domain", e.Domain, true)
	b = strAttr(b, "externalid", e.ExternalID, true)
	b = append(b, '>')
	b = strElem(b, "title", e.Title, false)
	b = strElems(b, "concept", e.Concepts)
	b = strElems(b, "class", e.Classes)
	b = strElem(b, "body", e.Body, true)
	b = strElem(b, "policy", e.Policy, true)
	return append(b, "</entry>"...)
}

func appendLinked(b []byte, l *Linked) []byte {
	if l == nil {
		return b
	}
	b = append(b, "<linked>"...)
	b = strElem(b, "output", l.Output, false)
	for i := range l.Links {
		k := &l.Links[i]
		b = append(b, "<link"...)
		b = strAttr(b, "label", k.Label, false)
		b = intAttr(b, "start", int64(k.Start), false)
		b = intAttr(b, "end", int64(k.End), false)
		b = intAttr(b, "target", k.Target, false)
		b = strAttr(b, "domain", k.Domain, true)
		b = strAttr(b, "url", k.URL, false)
		b = intAttr(b, "distance", k.Distance, true)
		b = append(b, "></link>"...)
	}
	for i := range l.Skips {
		b = append(b, "<skip"...)
		b = strAttr(b, "label", l.Skips[i].Label, false)
		b = strAttr(b, "reason", l.Skips[i].Reason, false)
		b = append(b, "></skip>"...)
	}
	return append(b, "</linked>"...)
}

// appendObjects writes <wrapper><object>id</object>…</wrapper>.
func appendObjects(b []byte, wrapper string, ids []int64) []byte {
	b, mark := openWrapper(b, wrapper)
	for _, id := range ids {
		b = intElem(b, "object", id, true)
	}
	return closeWrapper(b, mark, wrapper)
}

// openWrapper writes the outer element of an a>b field and returns where it
// starts; closeWrapper closes it, or takes it back when nothing was written
// inside. encoding/xml leaves <a></a> behind for every empty slice.
func openWrapper(b []byte, name string) ([]byte, int) {
	return append(append(append(b, '<'), name...), '>'), len(b)
}

func closeWrapper(b []byte, mark int, name string) []byte {
	if len(b) == mark+len(name)+2 {
		return b[:mark]
	}
	return append(append(append(b, "</"...), name...), '>')
}

func strAttr(b []byte, name, v string, omitEmpty bool) []byte {
	if omitEmpty && v == "" {
		return b
	}
	b = append(append(append(b, ' '), name...), `="`...)
	return append(appendEscaped(b, v), '"')
}

func intAttr(b []byte, name string, v int64, omitEmpty bool) []byte {
	if omitEmpty && v == 0 {
		return b
	}
	b = append(append(append(b, ' '), name...), `="`...)
	return append(strconv.AppendInt(b, v, 10), '"')
}

func uintAttr(b []byte, name string, v uint64, omitEmpty bool) []byte {
	if omitEmpty && v == 0 {
		return b
	}
	b = append(append(append(b, ' '), name...), `="`...)
	return append(strconv.AppendUint(b, v, 10), '"')
}

// boolAttr writes name="true"; every bool of the schema is omitempty.
func boolAttr(b []byte, name string, v bool) []byte {
	if !v {
		return b
	}
	return append(append(append(b, ' '), name...), `="true"`...)
}

func strElem(b []byte, name, v string, omitEmpty bool) []byte {
	if omitEmpty && v == "" {
		return b
	}
	b = append(append(append(b, '<'), name...), '>')
	b = appendEscaped(b, v)
	return append(append(append(b, "</"...), name...), '>')
}

// strElems writes one element per value. Every slice of the schema is
// omitempty, which encoding/xml applies to the elements too: an empty
// string, a zero ID and a nil pointer inside a slice are not written.
func strElems(b []byte, name string, vs []string) []byte {
	for _, v := range vs {
		b = strElem(b, name, v, true)
	}
	return b
}

func intElem(b []byte, name string, v int64, omitEmpty bool) []byte {
	if omitEmpty && v == 0 {
		return b
	}
	b = append(append(append(b, '<'), name...), '>')
	b = strconv.AppendInt(b, v, 10)
	return append(append(append(b, "</"...), name...), '>')
}

// asciiEscape is what an ASCII byte becomes in character data and in an
// attribute value; "" leaves it as it is. Control characters XML 1.0 has no
// way to carry become U+FFFD, as bytes that are not UTF-8 do.
var asciiEscape = func() (t [utf8.RuneSelf]string) {
	for c := 0; c < 0x20; c++ {
		t[c] = "\uFFFD"
	}
	t['\t'], t['\n'], t['\r'] = "&#x9;", "&#xA;", "&#xD;"
	t['"'], t['\''], t['&'], t['<'], t['>'] = "&#34;", "&#39;", "&amp;", "&lt;", "&gt;"
	return t
}()

// plainBytes are the ASCII bytes appendEscaped copies as they are.
var plainBytes = func() (t [256]bool) {
	for c := 0; c < utf8.RuneSelf; c++ {
		t[c] = asciiEscape[c] == ""
	}
	return t
}()

func appendEscaped(b []byte, s string) []byte {
	last := 0
	for i := 0; i < len(s); {
		if plainBytes[s[i]] {
			i++
			continue
		}
		esc, width := "", 1
		if c := s[i]; c < utf8.RuneSelf {
			esc = asciiEscape[c]
		} else {
			var replaced bool
			if width, replaced = replacedRune(s[i:]); replaced {
				esc = "\uFFFD"
			}
		}
		if esc != "" {
			b = append(append(b, s[last:i]...), esc...)
			last = i + width
		}
		i += width
	}
	return append(b, s[last:]...)
}

// replacedRune reports whether the character at the start of s, which is
// not ASCII, is one the encoder writes as U+FFFD: a byte that is not UTF-8,
// or a character outside XML 1.0's range. width is its length.
func replacedRune(s string) (width int, replaced bool) {
	r, width := utf8.DecodeRuneInString(s)
	return width, r == utf8.RuneError && width == 1 || !inCharacterRange(r)
}

// inCharacterRange reports whether r is a character XML 1.0 allows (the
// Char production, section 2.2).
func inCharacterRange(r rune) bool {
	return r == 0x09 || r == 0x0A || r == 0x0D ||
		r >= 0x20 && r <= 0xD7FF ||
		r >= 0xE000 && r <= 0xFFFD ||
		r >= 0x10000 && r <= 0x10FFFF
}
