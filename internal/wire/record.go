package wire

import (
	"fmt"
	"io"
	"sync"
	"unicode/utf8"

	"nnexus/internal/corpus"
)

// Record is what the engine stores as a record: an entry or a domain, kept
// as the bytes the protocol writes for its <entry> or <domain>.
type Record interface{ *corpus.Entry | *corpus.Domain }

// AppendRecord appends v's record, the <entry> or <domain> element a
// message would carry, to dst. DecodeRecord gives back v as Canonical left
// it.
func AppendRecord[T Record](dst []byte, v T) []byte {
	switch m := any(v).(type) {
	case *corpus.Entry:
		return appendEntry(dst, m)
	case *corpus.Domain:
		return appendDomain(dst, m)
	}
	return dst
}

// DecodeRecord reads a record written by AppendRecord into v. It is read in
// place, with no read window; every string it sets is a copy, so data may be
// reused as soon as it returns.
func DecodeRecord[T Record](data []byte, v T) error {
	d := recordDecoders.Get().(*Decoder)
	*d = Decoder{buf: data, lim: len(data), end: len(data), rerr: io.EOF,
		nameBuf: d.nameBuf[:0], vbuf: d.vbuf[:0], text: d.text[:0], open: d.open[:0], marks: d.marks[:0]}
	switch m := any(v).(type) {
	case *corpus.Entry:
		d.message("entry", func() { d.entry(m) })
	case *corpus.Domain:
		d.message("domain", func() { d.domain(m) })
	}
	err := d.done()
	d.buf = nil
	recordDecoders.Put(d)
	if err == io.EOF {
		return fmt.Errorf("wire: decode: record: %w", io.ErrUnexpectedEOF)
	}
	return err
}

// recordDecoders keep DecodeRecord's scratch from one record to the next.
var recordDecoders = sync.Pool{New: func() any { return new(Decoder) }}

// Canonical puts v's strings into the form its record decodes to, the form
// every message's encoder writes them in: each byte that is not UTF-8 and
// each character XML 1.0 cannot carry becomes U+FFFD, and an entry's blank
// concepts and classes, which are not written, go. A string that needs
// nothing keeps its bytes.
func Canonical[T Record](v T) {
	switch m := any(v).(type) {
	case *corpus.Entry:
		for _, s := range []*string{&m.Corpus, &m.Domain, &m.ExternalID, &m.Title, &m.Body, &m.Policy} {
			*s = carried(*s)
		}
		m.Concepts, m.Classes = carriedElems(m.Concepts), carriedElems(m.Classes)
	case *corpus.Domain:
		m.Name, m.URLTemplate, m.Scheme = carried(m.Name), carried(m.URLTemplate), carried(m.Scheme)
	}
}

// carried returns s as appendEscaped writes it and the decoder reads it
// back: s itself, unless it holds a byte or a character the codec replaces.
func carried(s string) string {
	var b []byte
	last := 0
	for i := 0; i < len(s); {
		width, replaced := 1, false
		if c := s[i]; c < utf8.RuneSelf {
			replaced = asciiEscape[c] == "\uFFFD"
		} else {
			width, replaced = replacedRune(s[i:])
		}
		if replaced {
			b = append(append(b, s[last:i]...), "\uFFFD"...)
			last = i + width
		}
		i += width
	}
	if b == nil {
		return s
	}
	return string(append(b, s[last:]...))
}

// carriedElems is carried over the values strElems writes: the empty ones
// it leaves out go.
func carriedElems(vs []string) []string {
	var out []string
	for _, v := range vs {
		if v = carried(v); v != "" {
			out = append(out, v)
		}
	}
	return out
}
