package wire

// The decoder's scanner: markup, names, character data and references, over
// a read window that charges every byte to the message it belongs to.

import (
	"bytes"
	"fmt"
	"io"
	"strconv"
	"strings"
	"unicode/utf8"
)

// markup reads one piece of markup whose '<' has been consumed. It returns
// true for a start tag, read up to the end of its name: the name is pushed
// on the open stack and its local part left in d.name. An end tag pops the
// stack; comments and instructions are dropped; a CDATA section is character
// data, kept in d.text when keep is set.
//
// A plain start tag, and the end tag of the innermost open element, are
// taken straight from the read window when they lie whole in it.
func (d *Decoder) markup(keep bool) bool {
	c, ok := d.mustGetc()
	if !ok {
		return false
	}
	switch c {
	case '/':
		if n := len(d.marks); n > 0 {
			top, w := d.open[d.marks[n-1]:], d.window()
			if len(w) > len(top) && w[len(top)] == '>' && bytes.Equal(w[:len(top)], top) {
				d.pos += len(top) + 1
				d.pop()
				return false
			}
		}
		if _, ok = d.readName(true); !ok {
			d.fail("expected element name after </")
			return false
		}
		d.space()
		if c, ok = d.mustGetc(); ok && c != '>' {
			d.fail("invalid characters between </" + string(d.name) + " and >")
		}
		n := len(d.marks)
		switch {
		case d.err != nil:
		case n == 0:
			d.fail("unexpected end element </" + string(d.name) + ">")
		case !bytes.Equal(d.open[d.marks[n-1]:], d.name):
			d.fail("element <" + string(d.open[d.marks[n-1]:]) + "> closed by </" + string(d.name) + ">")
		default:
			d.pop()
		}
	case '?':
		d.instruction()
	case '!':
		if c, ok = d.mustGetc(); !ok {
			return false
		}
		switch c {
		case '-':
			d.comment()
		case '[':
			for i := 0; i < len("CDATA["); i++ {
				if c, ok = d.mustGetc(); !ok {
					return false
				}
				if c != "CDATA["[i] {
					d.fail("invalid <![ sequence")
					return false
				}
			}
			if keep {
				d.text = d.charData(d.text, -1, true)
			} else {
				d.vbuf = d.charData(d.vbuf[:0], -1, true)
			}
		default:
			d.fail("document type declarations and other <! directives are not accepted")
		}
	default:
		d.pos--
		if n := plainName(d.window()); n > 0 {
			d.marks = append(d.marks, len(d.open))
			d.open = append(d.open, d.buf[d.pos:d.pos+n]...)
			d.name = d.open[len(d.open)-n:]
			d.pos += n
			d.inTag = true
			return true
		}
		local, ok := d.readName(true)
		if !ok {
			d.fail("expected element name after <")
			return false
		}
		d.marks = append(d.marks, len(d.open))
		d.open = append(d.open, d.name...)
		d.name = d.name[local:]
		d.inTag = true
		return true
	}
	return false
}

// pop closes the innermost open element.
func (d *Decoder) pop() {
	n := len(d.marks) - 1
	d.open, d.marks = d.open[:d.marks[n]], d.marks[:n]
}

// readName reads a name into d.name. With ns set it is an element or
// attribute name, which may carry one namespace prefix: local is where the
// part after it starts. ok is false, with no error set, when there is no
// name at all; the caller says what it expected.
func (d *Decoder) readName(ns bool) (local int, ok bool) {
	d.name = d.nameBuf[:0]
	for {
		if _, ok := d.mustGetc(); !ok {
			return 0, false
		}
		d.pos--
		w := d.buf[d.pos:d.lim]
		i := 0
		for i < len(w) && isNameByte(w[i]) {
			i++
		}
		d.name = append(d.name, w[:i]...)
		d.pos += i
		if i < len(w) {
			if w[i] >= utf8.RuneSelf {
				d.fail("names outside ASCII are not accepted")
				return 0, false
			}
			break
		}
	}
	d.nameBuf = d.name
	if len(d.name) == 0 {
		return 0, false
	}
	if !isNameStart(d.name[0]) {
		d.fail("invalid XML name: " + string(d.name))
		return 0, false
	}
	if i := bytes.IndexByte(d.name, ':'); ns && i >= 0 {
		if bytes.IndexByte(d.name[i+1:], ':') >= 0 {
			return 0, false
		}
		if i > 0 && i < len(d.name)-1 {
			local = i + 1
		}
	}
	return local, true
}

// plainName returns the length of the name at the start of w when it can be
// read in place: a valid name without a prefix, followed in w by an ASCII
// byte that ends it. It returns 0 for anything readName has to decide.
func plainName(w []byte) int {
	i := 0
	for i < len(w) && plainNameBytes[w[i]] {
		i++
	}
	if i == 0 || i == len(w) || w[i] >= utf8.RuneSelf || isNameByte(w[i]) || !isNameStart(w[0]) {
		return 0
	}
	return i
}

// nameBytes are the ASCII characters of XML names; plainNameBytes are those
// but the namespace separator.
var nameBytes, plainNameBytes = func() (t, plain [256]bool) {
	for _, c := range "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789_:.-" {
		t[c], plain[c] = true, c != ':'
	}
	return t, plain
}()

func isNameByte(c byte) bool { return nameBytes[c] }

// isNameStart reports whether a name byte may begin a name.
func isNameStart(c byte) bool { return !isDigit(c) && c != '-' && c != '.' }

func isSpace(c byte) bool { return c == ' ' || c == '\n' || c == '\r' || c == '\t' }

func (d *Decoder) space() {
	for (d.pos < d.lim || d.fill()) && isSpace(d.buf[d.pos]) {
		d.pos++
	}
}

// comment skips a comment whose "<!-" has been consumed.
func (d *Decoder) comment() {
	if c, ok := d.mustGetc(); ok && c != '-' {
		d.fail("invalid sequence <!- not part of <!--")
	}
	var b0, b1 byte
	for {
		c, ok := d.mustGetc()
		if !ok {
			return
		}
		if b0 == '-' && b1 == '-' {
			if c != '>' {
				d.fail(`invalid sequence "--" not allowed in comments`)
			}
			return
		}
		b0, b1 = b1, c
	}
}

// instruction skips a processing instruction whose "<?" has been consumed.
// An XML declaration must say version 1.0 and UTF-8, if it says either.
func (d *Decoder) instruction() {
	if _, ok := d.readName(false); !ok {
		d.fail("expected target name after <?")
		return
	}
	d.space()
	d.vbuf = d.vbuf[:0]
	for n := 0; n < 2 || d.vbuf[n-2] != '?' || d.vbuf[n-1] != '>'; n++ {
		c, ok := d.mustGetc()
		if !ok {
			return
		}
		d.vbuf = append(d.vbuf, c)
	}
	if string(d.name) != "xml" {
		return
	}
	content := string(d.vbuf[:len(d.vbuf)-2])
	if v := declared("version", content); v != "" && v != "1.0" {
		d.fail("unsupported version " + strconv.Quote(v) + "; only version 1.0 is supported")
	}
	if enc := declared("encoding", content); enc != "" && !strings.EqualFold(enc, "utf-8") {
		d.fail("encoding " + strconv.Quote(enc) + " declared; only UTF-8 is supported")
	}
}

// declared finds param="value" or param='value' in an XML declaration, the
// way encoding/xml looks for it.
func declared(param, s string) string {
	param += "="
	i, sep := 0, byte(0)
	for i < len(s) && sep == 0 {
		sub := s[i:]
		k := strings.Index(sub, param)
		if k < 0 || len(param)+k >= len(sub) {
			return ""
		}
		i += len(param) + k + 1
		if c := sub[len(param)+k]; c == '\'' || c == '"' {
			sep = c
		}
	}
	if sep == 0 {
		return ""
	}
	j := strings.IndexByte(s[i:], sep)
	if j < 0 {
		return ""
	}
	return s[i : i+j]
}

// --- character data ---

// What a byte ends or interrupts in each kind of character data.
const (
	inText   = 1 << iota // between tags
	inQuotes             // an attribute value
	inCDATA              // a CDATA section
)

var charClass = func() (t [256]uint8) {
	for c := 0; c < 0x20; c++ {
		t[c] = inText | inQuotes | inCDATA // not a character of XML 1.0
	}
	t['\t'], t['\n'] = 0, 0
	t['\r'] = inText | inQuotes | inCDATA // folded into \n
	t['<'], t['&'] = inText|inQuotes, inText|inQuotes
	t['>'] = inText | inCDATA // may end ]]>
	t['"'], t['\''] = inQuotes, inQuotes
	return t
}()

// charData appends character data to dst with its references resolved and
// its line ends folded to \n, up to what ends it: the quote (consumed) of an
// attribute value, the "]]>" (consumed) of a CDATA section, the '<' (left
// unread) after text — or the end of the stream, which is the next read's
// error. What was appended is checked to be UTF-8 and XML 1.0 characters.
func (d *Decoder) charData(dst []byte, quote int, cdata bool) []byte {
	mode := uint8(inText)
	if cdata {
		mode = inCDATA
	} else if quote >= 0 {
		mode = inQuotes
	}
	start := len(dst) // of this stretch, which is checked on its own
	verbatim := start // of the bytes since the last reference
	var seen byte
	afterCR := false
scan:
	for d.err == nil {
		if d.pos >= d.lim && !d.fill() {
			if cdata && d.err == io.EOF {
				d.fail("unexpected EOF in CDATA section")
			}
			break
		}
		if afterCR {
			if afterCR = false; d.buf[d.pos] == '\n' {
				d.pos++
				continue
			}
		}
		w := d.buf[d.pos:d.lim]
		i := 0
		for i < len(w) && charClass[w[i]]&mode == 0 {
			seen |= w[i]
			i++
		}
		dst = append(dst, w[:i]...)
		d.pos += i
		if i == len(w) {
			continue
		}
		d.pos++
		switch c := w[i]; {
		case int(c) == quote:
			break scan
		case c == '"' || c == '\'':
			dst = append(dst, c)
		case c == '<':
			if quote >= 0 {
				d.fail("unescaped < inside quoted string")
			}
			d.pos--
			break scan
		case c == '&':
			if r, n := plainReference(d.window()); n > 0 {
				dst = append(dst, r)
				d.pos += n
			} else {
				dst = d.reference(dst)
			}
			verbatim = len(dst)
		case c == '\r':
			dst = append(dst, '\n')
			afterCR = true
		case c == '>':
			if n := len(dst); n-verbatim >= 2 && dst[n-1] == ']' && dst[n-2] == ']' {
				if !cdata {
					d.fail("unescaped ]]> not in CDATA section")
				}
				dst = dst[:n-2]
				break scan
			}
			dst = append(dst, c)
		default:
			d.fail(fmt.Sprintf("illegal character code %U", c))
		}
	}
	if seen >= utf8.RuneSelf && (d.err == nil || d.err == io.EOF) {
		for s := dst[start:]; len(s) > 0; {
			r, size := utf8.DecodeRune(s)
			if r == utf8.RuneError && size == 1 {
				d.fail("invalid UTF-8")
				break
			}
			if !inCharacterRange(r) {
				d.fail(fmt.Sprintf("illegal character code %U", r))
				break
			}
			s = s[size:]
		}
	}
	return dst
}

// plainReference reads, from the start of w, the rest of a reference whose
// '&' has been consumed when it is one of the common ones: &lt;, &gt;, &amp;
// or two decimal digits naming a printable ASCII character. It returns the
// character and the bytes read, or 0 bytes for anything reference has to
// decide.
func plainReference(w []byte) (byte, int) {
	switch {
	case len(w) < 3:
	case string(w[:3]) == "lt;":
		return '<', 3
	case string(w[:3]) == "gt;":
		return '>', 3
	case len(w) < 4:
	case string(w[:4]) == "amp;":
		return '&', 4
	case w[0] == '#' && isDigit(w[1]) && isDigit(w[2]) && w[3] == ';':
		if c := (w[1]-'0')*10 + w[2] - '0'; c >= ' ' {
			return c, 4
		}
	}
	return 0, 0
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

// reference appends what the character or entity reference whose '&' has
// been consumed stands for: one of the five predefined names, or a code point
// in decimal or hexadecimal.
func (d *Decoder) reference(dst []byte) []byte {
	c, ok := d.mustGetc()
	if ok && c != '#' {
		var name [5]byte
		n := 0
		for ; ok && c != ';' && n < len(name); c, ok = d.mustGetc() {
			name[n] = c
			n++
		}
		if ok && c == ';' {
			switch string(name[:n]) {
			case "lt":
				return append(dst, '<')
			case "gt":
				return append(dst, '>')
			case "amp":
				return append(dst, '&')
			case "apos":
				return append(dst, '\'')
			case "quot":
				return append(dst, '"')
			}
		}
		d.fail("invalid character entity")
		return dst
	}
	base := rune(10)
	if c, ok = d.mustGetc(); ok && c == 'x' {
		base = 16
		c, ok = d.mustGetc()
	}
	r, digits := rune(0), 0
	for ; ok; c, ok = d.mustGetc() {
		var v byte
		switch {
		case c >= '0' && c <= '9':
			v = c - '0'
		case base == 16 && c >= 'a' && c <= 'f':
			v = c - 'a' + 10
		case base == 16 && c >= 'A' && c <= 'F':
			v = c - 'A' + 10
		default:
			v = 0xFF
		}
		if v == 0xFF {
			break
		}
		if r <= utf8.MaxRune {
			r = r*base + rune(v) // past MaxRune it is refused, however long
		}
		digits++
	}
	switch {
	case !ok:
	case c != ';' || digits == 0 || r > utf8.MaxRune:
		d.fail("invalid character entity")
	case r >= 0xD800 && r <= 0xDFFF:
		dst = utf8.AppendRune(dst, utf8.RuneError) // as string(rune) has it
	case !inCharacterRange(r):
		d.fail(fmt.Sprintf("illegal character code %U", r))
	default:
		dst = utf8.AppendRune(dst, r)
	}
	return dst
}

// --- the read window ---

// window is what the current message may still read of the read window
// without filling it: empty once the stream failed.
func (d *Decoder) window() []byte {
	if d.pos >= d.lim {
		return nil
	}
	return d.buf[d.pos:d.lim]
}

func (d *Decoder) getc() (byte, bool) {
	if d.pos >= d.lim && !d.fill() {
		return 0, false
	}
	d.pos++
	return d.buf[d.pos-1], true
}

// mustGetc is getc where the stream may not end.
func (d *Decoder) mustGetc() (byte, bool) {
	c, ok := d.getc()
	if !ok && d.err == io.EOF {
		d.fail("unexpected EOF")
	}
	return c, ok
}

// fill reads the next window once this one is consumed. It fails when the
// window was cut short by the message's limit, and with the reader's error.
func (d *Decoder) fill() bool {
	if d.err != nil {
		return false
	}
	if d.lim < d.end {
		d.abort(ErrTooLarge)
		return false
	}
	d.used += int64(d.end)
	d.pos, d.end = 0, 0
	for tries := 0; d.end == 0 && d.rerr == nil; tries++ {
		if tries == 100 {
			d.rerr = io.ErrNoProgress
			break
		}
		d.end, d.rerr = d.r.Read(d.buf)
	}
	if d.end == 0 {
		d.err, d.rerr = d.rerr, nil
	}
	d.setLimit()
	if d.lim == 0 && d.err == nil {
		d.abort(ErrTooLarge)
	}
	return d.err == nil
}

// setLimit places lim: at the end of the window, or where the message runs
// out of its bytes; at 0 after an error, so that every read takes the slow
// path and fails there.
func (d *Decoder) setLimit() {
	d.lim = d.end
	if d.err != nil {
		d.lim = 0
	} else if d.inMsg && d.max > 0 && d.max-d.used < int64(d.end) {
		d.lim = int(d.max - d.used)
	}
}

// syntaxError is malformed XML, or XML this decoder refuses.
type syntaxError string

func (e syntaxError) Error() string { return "XML syntax error: " + string(e) }

// fail ends the stream with a syntax error.
func (d *Decoder) fail(msg string) { d.abort(syntaxError(msg)) }

// abort records the stream's error, unless it has one: only that the stream
// ended, which is no error until something was missing, gives way. Closing
// the window makes every later read take the slow path and fail there.
func (d *Decoder) abort(err error) {
	if d.err == nil || d.err == io.EOF {
		d.err = err
	}
	d.lim = 0
}
