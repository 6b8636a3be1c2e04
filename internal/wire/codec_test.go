package wire

import (
	"bytes"
	"encoding/xml"
	"errors"
	"io"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"testing/iotest"

	"nnexus/internal/corpus"
	"nnexus/internal/render"
)

// seedMessages is one message of every method and payload type, and one
// error response per code.
func seedMessages() []interface{} {
	entry := &corpus.Entry{ID: 7, Corpus: "pm", Domain: "planetmath.org", ExternalID: "PlanarGraph",
		Title: "planar graph", Concepts: []string{"plane graph", "planar"}, Classes: []string{"05C10"},
		Body: "a graph that can be <drawn> in the plane & \"more\"\r\n", Policy: "forbid even"}
	linked := &Linked{
		Output: `a <a href="http://pm/2" title="planar graph">planar graph</a> and more`,
		Links: []LinkInfo{
			{Label: "planar graph", Start: 2, End: 14, Target: 2, Domain: "planetmath.org", URL: "http://pm/2", Distance: 3},
			{Label: "graph", Start: 20, End: 25, Target: 3, URL: "http://pm/3?a=1&b=2"},
		},
		Skips: []SkipInfo{{Label: "even", Reason: "policy"}},
	}
	msgs := []interface{}{
		&Request{Seq: 1, Method: MethodPing},
		&Request{Seq: 2, Method: MethodAddDomain, Domain: &corpus.Domain{Name: "planetmath.org", URLTemplate: "http://pm/{id}", Scheme: "msc", Priority: 1}},
		&Request{Seq: 3, Method: MethodAddEntry, Corpus: "pm", Entry: entry},
		&Request{Seq: 4, Method: MethodUpdateEntry, Entry: entry},
		&Request{Seq: 5, Method: MethodRemoveEntry, Object: 42},
		&Request{Seq: 6, Method: MethodGetEntry, Object: 42},
		&Request{Seq: 7, Method: MethodSetPolicy, Object: 42, Policy: "forbid even\npermit odd"},
		&Request{Seq: 8, Method: MethodLinkEntry, Object: 42, Mode: "steered", Format: "html"},
		&Request{Seq: 9, Method: MethodLinkText, Corpus: "pm", Targets: []string{"pm", "mw"},
			Text: "every planar graph is a graph", Classes: []string{"05C10", "05C40"}, Scheme: "msc", Mode: "steered", Format: "markdown"},
		&Request{Seq: 10, Method: MethodInvalidated},
		&Request{Seq: 11, Method: MethodRelink},
		&Request{Seq: 12, Method: MethodStats},
		&Request{Seq: 13, Method: MethodAddEntries, Entries: []*corpus.Entry{entry, {Title: "graph"}}},
		&Request{Seq: 14, Method: MethodLinkBatch, Texts: []string{"one planar graph", "two"}, Classes: []string{"05C10"}, Scheme: "msc"},
		&Request{Seq: 15, Method: MethodRelinkBatch, Objects: []int64{3, 9, 27}},
		&Request{Seq: 18, Method: MethodReplSubscribe, Offset: 12, Epoch: 3, MaxRecords: 64, WaitMillis: 500, Follower: "127.0.0.1:7072"},
		&Request{Seq: 19, Method: MethodReplSnapshot},
		&Request{Seq: 20, Method: MethodReplAck, Follower: "f1", Offset: 99, Epoch: 3},
		&Request{Seq: 21, Method: MethodReplStatus},
		&Request{Seq: 22, Method: MethodReplVote, Epoch: 4, Offset: 99, Candidate: "127.0.0.1:7073"},
		&Request{Seq: 23, Method: MethodReplLead, Epoch: 4, Leader: "127.0.0.1:7073"},

		&Response{Seq: 1, Status: "ok"},
		&Response{Seq: 3, Status: "ok", Object: 7},
		&Response{Seq: 6, Status: "ok", Entry: entry},
		&Response{Seq: 9, Status: "ok", Linked: linked},
		&Response{Seq: 10, Status: "ok", Invalidated: []int64{3, 9, 27}},
		&Response{Seq: 12, Status: "ok", Stats: &Stats{Entries: 7145, Concepts: 12171, Domains: 2, Invalidated: 1,
			CacheHits: 5, CacheMisses: 6, LinksCreated: 7, TextsLinked: 8}},
		&Response{Seq: 13, Status: "ok", Objects: []int64{8, 9}},
		&Response{Seq: 14, Status: "ok", Batch: []*Linked{linked, {Output: "two"}}},
		&Response{Seq: 18, Status: "ok", Repl: &ReplPayload{Role: RolePrimary, Epoch: 3, Head: 14,
			Records: []ReplRecord{NewReplRecord(12, []byte{0, 1, 2, 0xFF}), NewReplRecord(13, []byte("put"))}}},
		&Response{Seq: 18, Status: "ok", Repl: &ReplPayload{Epoch: 3, Head: 14, Reset: true}},
		&Response{Seq: 19, Status: "ok", Repl: &ReplPayload{Role: RolePrimary, Epoch: 3, Head: 14,
			Snap: []SnapOp{NewSnapOp("entries", "7", []byte("value")), {Table: "meta", Key: "next", Delete: true}}}},
		&Response{Seq: 21, Status: "ok", Leader: "127.0.0.1:7071",
			Repl: &ReplPayload{Role: RoleFollower, Epoch: 3, Head: 14, Applied: 12, Stale: true}},
		&Response{Seq: 22, Status: "ok", Repl: &ReplPayload{Epoch: 4, Applied: 99, Granted: true}},
		&Response{Seq: 2, Status: "error", Error: "core: unknown domain"},
		&Response{Seq: 3, Status: "error", Code: CodeNotPrimary, Error: "this node is a read replica", Leader: "127.0.0.1:7071"},
	}
	for _, code := range []string{CodeOverloaded, CodeInternal, CodeNotPrimary, CodeStaleEpoch,
		CodeQuorumUnavailable, CodeFailed} {
		msgs = append(msgs, &Response{Seq: 30, Status: "error", Code: code, Error: code + ": refused"})
	}
	return msgs
}

// seedDocuments are spellings of a message no encoder of ours writes and the
// decoder has to read all the same, and a few it has to refuse.
var seedDocuments = []string{
	`<?xml version="1.0" encoding="UTF-8"?>` + "\n<!-- hello -->\n stray <request method='ping' seq='3'/>",
	`<request seq=" 4 " method="linkText"><text>a<![CDATA[ <b> & ]]>c<!-- cut -->d<i>e</i>f</text><text>x &amp; &#121;&#x7A;&lt;&gt;&apos;&quot;</text></request>`,
	`<request method="linkText" next="1"><future depth="1"><deeper/>text</future><class>a</class><class>b</class><targets><corpus>pm</corpus><other/></targets><targets x="1"><corpus>mw</corpus></targets></request>`,
	`<a:request xmlns:a="urn:x" a:method="stats" xmlns:seq="9"><a:object> 12 </a:object><object></object></a:request>`,
	"<request method=\"linkText\"><text>line\r\nline\rline&#xD;&#13;\n</text><entry id=\"5\"><title>t</title></entry><entry><concept>c</concept></entry></request>",
	`<response status="ok" seq="2"><stats><entries>1</entries><unknown>2</unknown><concepts>+3</concepts></stats><repl epoch="1" head="2" stale="1" granted="T"><record offset="7">YWJj<x>cut</x>ZGVm</record><snap><op table="t" key="k" delete="false">dg==</op></snap></repl></response>`,
	`<response status="ok"><linked><output>o</output><link label="l" start="1" end="2" target="3" url="u" more="x">ignored</link><skip label="s" reason="r"/></linked><batch><linked/><junk/></batch></response>`,
	`<request method="ping"></request><request method="stats"></request>` + "\n" + `<request method="relink"/>`,
	`<!DOCTYPE request [<!ENTITY a "b">]><request method="ping"/>`,
	`<request method="ping" séq="1"/>`,
	`<request method="ping"><object>1x</object></request>`,
	`<request seq="1" method="ping">]]></request>`,
	`<request method="ping">&bogus;</request>`,
	`<request method="ping"></reqest>`,
	`<?xml version="1.1"?><request method="ping"/>`,
	`<?xml version="1.0" encoding="latin1"?><request method="ping"/>`,
	`<response/>`,
	"this is not xml <<<",
	// Elements the protocol no longer has are unknown elements.
	`<request seq="16" method="linkText"><text>planar</text><tokens><token norm="planar" start="0" end="6"></token></tokens></request>`,
	`<response seq="16" status="ok"><matches><match label="planar graph" tokstart="0" tokend="2"></match></matches></response>`,
	`<response seq="12" status="ok"><stats><entries>1</entries><maxobject>7145</maxobject></stats></response>`,
}

// wrappers are the a>b outer elements: encoding/xml writes each even around
// nothing, the codec only around something.
var emptyWrappers = func() *strings.Replacer {
	var pairs []string
	for _, w := range []string{"targets", "entries", "texts", "objects", "invalidated", "batch", "snap"} {
		pairs = append(pairs, "<"+w+"></"+w+">", "")
	}
	return strings.NewReplacer(pairs...)
}()

// refused reports whether data holds something of DESIGN.md's refuse list —
// a <! directive, or a name outside ASCII — as far as the reference's own
// tokenizer gets through it.
func refused(data []byte) bool {
	high := func(s string) bool { return strings.IndexFunc(s, func(r rune) bool { return r >= 0x80 }) >= 0 }
	dec := xml.NewDecoder(bytes.NewReader(data))
	for {
		tok, err := dec.RawToken()
		if err != nil {
			return false
		}
		switch tok := tok.(type) {
		case xml.Directive:
			return true
		case xml.ProcInst:
			if high(tok.Target) {
				return true
			}
		case xml.EndElement:
			if high(tok.Name.Space) || high(tok.Name.Local) {
				return true
			}
		case xml.StartElement:
			if high(tok.Name.Space) || high(tok.Name.Local) {
				return true
			}
			for _, a := range tok.Attr {
				if high(a.Name.Space) || high(a.Name.Local) {
					return true
				}
			}
		}
	}
}

// checkEncode holds the encoder to the reference on one message.
func checkEncode(t *testing.T, msg interface{}) []byte {
	t.Helper()
	var ref bytes.Buffer
	if err := newRefEncoder(&ref).Encode(msg); err != nil {
		t.Fatalf("reference encode of %+v: %v", msg, err)
	}
	want := emptyWrappers.Replace(ref.String())
	got, err := Append(nil, msg)
	if err != nil {
		t.Fatalf("encode of %+v: %v", msg, err)
	}
	if string(got) != want {
		t.Fatalf("encode of %+v\n got %s\nwant %s", msg, got, want)
	}
	return got
}

// checkDecode holds the decoder to the reference on a stream of up to four
// messages of one type, read through r; every message both accept is also
// put through checkEncode.
func checkDecode(t *testing.T, data []byte, r io.Reader, fresh func() interface{}) {
	t.Helper()
	ref, dec := newRefDecoder(bytes.NewReader(data)), NewDecoder(r)
	for i := 0; i < 4; i++ {
		want, got := fresh(), fresh()
		refErr, err := ref.Decode(want), dec.Decode(got)
		if refErr != nil || err != nil {
			if (refErr == nil) != (err == nil) && !refused(data) {
				t.Fatalf("message %d of %q into %T: reference error %v, decoder error %v", i, data, got, refErr, err)
			}
			if (refErr == io.EOF) != (err == io.EOF) && !refused(data) {
				t.Fatalf("message %d of %q into %T: reference error %v, decoder error %v", i, data, got, refErr, err)
			}
			return
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("message %d of %q:\n got %+v\nwant %+v", i, data, got, want)
		}
		checkEncode(t, got)
	}
}

// FuzzCodecEquivalence holds the codec to the encoding/xml one it replaced.
// Decoding: every stream the reference reads, the decoder reads into equal
// structs, and what the reference refuses it refuses — but for the refuse
// list, which the fuzzer skips. Encoding: equal bytes, minus the empty
// wrappers, for whatever was decoded and for a message built around an
// arbitrary string; and that message reads back equal through both decoders.
// Under a byte limit the decoder never takes a byte more than it allows.
func FuzzCodecEquivalence(f *testing.F) {
	_, rendered := snippetExchange()
	for _, m := range append(seedMessages(), rendered) {
		var buf bytes.Buffer
		if err := newRefEncoder(&buf).Encode(m); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes(), "planar graph", uint16(0))
	}
	for i, doc := range seedDocuments {
		f.Add([]byte(doc), "a<b>&\"c'\r\n\t\x00\x7f\xff�￾é日本", uint16(i*7))
	}
	f.Fuzz(func(t *testing.T, data []byte, s string, limit uint16) {
		for _, fresh := range []func() interface{}{
			func() interface{} { return new(Request) },
			func() interface{} { return new(Response) },
		} {
			checkDecode(t, data, bytes.NewReader(data), fresh)
			checkDecode(t, data, iotest.OneByteReader(bytes.NewReader(data)), fresh)
		}

		built := []interface{}{
			&Request{Method: s, Corpus: s, Text: s, Classes: []string{s, "", s}, Objects: []int64{0, 5, 0},
				Entry: &corpus.Entry{ExternalID: s, Title: s, Concepts: []string{s}}, Entries: []*corpus.Entry{nil, {Body: s}},
				Targets: []string{""}},
			&Response{Status: s, Error: s, Leader: s, Batch: []*Linked{nil, {Output: s, Links: []LinkInfo{{Label: s, URL: s}}}},
				Invalidated: []int64{0},
				Repl:        &ReplPayload{Role: s, Records: []ReplRecord{{Offset: 1, Body: s}}, Snap: []SnapOp{{Table: s, Key: s, Value: s}}}},
		}
		for _, msg := range built {
			enc := checkEncode(t, msg)
			fresh := func() interface{} { return reflect.New(reflect.TypeOf(msg).Elem()).Interface() }
			checkDecode(t, enc, bytes.NewReader(enc), fresh)
		}

		if limit > 0 {
			dec := NewDecoder(iotest.DataErrReader(bytes.NewReader(data)))
			dec.SetLimit(int64(limit))
			for dec.Decode(new(Request)) == nil {
				if size := dec.used + int64(dec.pos); size > int64(limit) {
					t.Fatalf("a message of %d bytes passed a limit of %d", size, limit)
				}
			}
		}
	})
}

// TestMessageLimitIsExact: the limit is charged on the message, from its
// first byte to its last, and on nothing around it — however the stream is
// cut into reads.
func TestMessageLimitIsExact(t *testing.T) {
	first, _ := Append(nil, &Request{Seq: 1, Method: MethodPing})
	second, _ := Append(nil, &Request{Seq: 2, Method: MethodLinkText, Text: strings.Repeat("x", 9000)})
	size := int64(len(second) - 1) // the newline is the separator, not the message
	stream := append(append([]byte("\n\n  "), first...), second...)
	stream = append(stream, first...)
	for name, reader := range map[string]func() io.Reader{
		"whole":   func() io.Reader { return bytes.NewReader(stream) },
		"bytes":   func() io.Reader { return iotest.OneByteReader(bytes.NewReader(stream)) },
		"halves":  func() io.Reader { return iotest.HalfReader(bytes.NewReader(stream)) },
		"dataerr": func() io.Reader { return iotest.DataErrReader(bytes.NewReader(stream)) },
	} {
		dec := NewDecoder(reader())
		dec.SetLimit(size)
		for i, want := range []int64{1, 2, 1} {
			var req Request
			if err := dec.Decode(&req); err != nil || req.Seq != want {
				t.Fatalf("%s: message %d under a limit of its size: seq %d, %v", name, i, req.Seq, err)
			}
		}
		if err := dec.Decode(new(Request)); err != io.EOF {
			t.Errorf("%s: end of stream: %v", name, err)
		}

		dec = NewDecoder(reader())
		dec.SetLimit(size - 1)
		if err := dec.Decode(new(Request)); err != nil {
			t.Fatalf("%s: the small message ahead: %v", name, err)
		}
		err := dec.Decode(new(Request))
		if !errors.Is(err, ErrTooLarge) {
			t.Errorf("%s: one byte over: %v", name, err)
		}
		if again := dec.Decode(new(Request)); !errors.Is(again, ErrTooLarge) {
			t.Errorf("%s: the error did not stick: %v", name, again)
		}
	}
}

// decodeAll decodes up to four messages of one type from r, the way
// checkDecode does, and returns them and the error that ended the stream.
func decodeAll(r io.Reader, fresh func() interface{}) ([]interface{}, string) {
	dec := NewDecoder(r)
	var msgs []interface{}
	for i := 0; i < 4; i++ {
		m := fresh()
		if err := dec.Decode(m); err != nil {
			return msgs, err.Error()
		}
		msgs = append(msgs, m)
	}
	return msgs, ""
}

// TestDecodeIndependentOfReads: every seed stream, and the rendered snippet
// response, decode into the same structs and the same error however the
// stream is cut into reads — in two at every byte, and padded ahead so that
// every byte in turn is the first past the read window, which puts each name,
// value, reference and end tag across its edge. This takes every fast path's
// fallback, which the fuzzer's short inputs rarely reach.
func TestDecodeIndependentOfReads(t *testing.T) {
	var streams [][]byte
	_, rendered := snippetExchange()
	for _, m := range append(seedMessages(), rendered) {
		data, err := Append(nil, m)
		if err != nil {
			t.Fatal(err)
		}
		streams = append(streams, data)
	}
	for _, doc := range seedDocuments {
		streams = append(streams, []byte(doc))
	}
	window := len(NewDecoder(nil).buf)
	for _, data := range streams {
		for _, fresh := range []func() interface{}{
			func() interface{} { return new(Request) },
			func() interface{} { return new(Response) },
		} {
			want, wantErr := decodeAll(bytes.NewReader(data), fresh)
			for cut := 1; cut < len(data); cut++ {
				got, err := decodeAll(io.MultiReader(bytes.NewReader(data[:cut]), bytes.NewReader(data[cut:])), fresh)
				if err != wantErr || !reflect.DeepEqual(got, want) {
					t.Fatalf("%q cut at %d into %T:\n got %+v, %q\nwant %+v, %q", data, cut, fresh(), got, err, want, wantErr)
				}
				if cut >= window {
					continue
				}
				padded := append(bytes.Repeat([]byte(" "), window-cut), data...)
				got, err = decodeAll(bytes.NewReader(padded), fresh)
				if err != wantErr || !reflect.DeepEqual(got, want) {
					t.Fatalf("%q with byte %d first past the window, into %T:\n got %+v, %q\nwant %+v, %q",
						data, cut, fresh(), got, err, want, wantErr)
				}
			}
		}
	}
}

// TestDecoderRetainsNoLargeBuffers: a deep or long message leaves none of
// its scratch space on the decoder that reads it — its open-element stack,
// names, values, text or a <linked>'s strings, every slice the Decoder
// holds — once the next message is read.
func TestDecoderRetainsNoLargeBuffers(t *testing.T) {
	const depth = 1 << 20
	long := strings.Repeat("x", 2*maxRetainedBuffer)
	ping := `<request method="ping"/>`
	requests := []string{
		`<request method="ping">` + strings.Repeat("<a>", depth) + strings.Repeat("</a>", depth) + `</request>`,
		`<request method="ping" ` + long + `="&amp;` + long + `"><` + long + `>` + long + `</` + long + `></request>`,
		`<request method="linkText"><text>` + long + `</text></request>`,
	}
	var stream bytes.Buffer
	for _, r := range requests {
		stream.WriteString(r + ping)
	}
	stream.WriteString(`<response status="ok"><linked>` + strings.Repeat(`<link label="l"/><skip reason="r"/>`, 4096) +
		`<link url="` + long + `"/></linked></response>` + `<response status="ok"/>`)

	dec := NewDecoder(&stream)
	for i := 0; i < 2*len(requests)+2; i++ {
		var err error
		if i < 2*len(requests) {
			err = dec.Decode(new(Request))
		} else {
			err = dec.Decode(new(Response))
		}
		if err != nil {
			t.Fatalf("message %d: %v", i, err)
		}
		if i%2 == 0 {
			continue
		}
		fields := reflect.ValueOf(dec).Elem()
		for f := 0; f < fields.NumField(); f++ {
			buf := fields.Field(f)
			if buf.Kind() != reflect.Slice {
				continue
			}
			if size := buf.Cap() * int(buf.Type().Elem().Size()); size > maxRetainedBuffer {
				t.Errorf("after message %d the decoder keeps %s of %d bytes", i, fields.Type().Field(f).Name, size)
			}
		}
	}
}

// countingWriter counts Write calls.
type countingWriter struct {
	writes int
	bytes.Buffer
}

func (w *countingWriter) Write(p []byte) (int, error) {
	w.writes++
	return w.Buffer.Write(p)
}

// TestEncodeIsOneWrite: a message and its newline leave in one Write.
func TestEncodeIsOneWrite(t *testing.T) {
	var w countingWriter
	enc := NewEncoder(&w)
	msgs := seedMessages()
	for _, m := range msgs {
		if err := enc.Encode(m); err != nil {
			t.Fatal(err)
		}
	}
	if w.writes != len(msgs) {
		t.Errorf("%d messages took %d writes", len(msgs), w.writes)
	}
	if n := bytes.Count(w.Bytes(), []byte("\n")); n != len(msgs) {
		t.Errorf("%d messages, %d newlines", len(msgs), n)
	}
	if err := enc.Encode(Request{}); err == nil {
		t.Error("a value that is no message was encoded")
	}
}

// snippetExchange is one snippet link as the wire sees it: a linkText request
// and its 4-link response, whose output is the request's text with the four
// anchors rendered into it as the server sends them.
func snippetExchange() (*Request, *Response) {
	req := &Request{Seq: 5, Method: MethodLinkText, Text: "every planar graph is a connected graph with a plane embedding",
		Classes: []string{"05C10"}, Scheme: "msc"}
	resp := OK(req)
	resp.Linked = new(Linked)
	var anchors []render.Anchor
	for i, label := range []string{"planar graph", "connected graph", "plane", "embedding"} {
		start := strings.Index(req.Text, label)
		url := "http://planetmath.org/?op=getobj&id=" + strconv.Itoa(1084+i)
		anchors = append(anchors, render.Anchor{Start: start, End: start + len(label), URL: url, Title: label})
		resp.Linked.Links = append(resp.Linked.Links, LinkInfo{Label: label, Start: start, End: start + len(label),
			Target: int64(1084 + i), Domain: "planetmath.org", URL: url, Distance: 2})
	}
	output, err := render.Apply(req.Text, anchors, render.HTML)
	if err != nil {
		panic(err)
	}
	resp.Linked.Output = output
	return req, resp
}

// TestCodecAllocs budgets one snippet link's codec work — a linkText request
// and its 4-link response, encoded and decoded over long-lived codecs as a
// connection has them — at 1.5x what was measured once the decoder read
// tokens in place (14: the strings and slices of the decoded structs, the
// short strings of the <linked> being one; encoding/xml made 330).
func TestCodecAllocs(t *testing.T) {
	req, resp := snippetExchange()
	var stream bytes.Buffer
	enc, dec := NewEncoder(&stream), NewDecoder(&stream)
	allocs := testing.AllocsPerRun(200, func() {
		var gotReq Request
		var gotResp Response
		if enc.Encode(req) != nil || enc.Encode(resp) != nil || dec.Decode(&gotReq) != nil || dec.Decode(&gotResp) != nil {
			t.Fatal("round trip failed")
		}
		if gotReq.Text != req.Text || len(gotResp.Linked.Links) != 4 {
			t.Fatal("round trip lost data")
		}
	})
	const budget = 21
	t.Logf("%.0f allocations per round trip (budget %d)", allocs, budget)
	if allocs > budget {
		t.Errorf("%.0f allocations per round trip, budget %d", allocs, budget)
	}
}

// BenchmarkCodec is TestCodecAllocs' round trip, split by direction.
func BenchmarkCodec(b *testing.B) {
	req, resp := snippetExchange()
	var stream bytes.Buffer
	enc, dec := NewEncoder(&stream), NewDecoder(&stream)
	b.Run("encode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			stream.Reset()
			if enc.Encode(req) != nil || enc.Encode(resp) != nil {
				b.Fatal("encode failed")
			}
		}
		b.SetBytes(int64(stream.Len()))
	})
	b.Run("decode", func(b *testing.B) {
		stream.Reset()
		enc.Encode(req)
		enc.Encode(resp)
		data := append([]byte(nil), stream.Bytes()...)
		b.SetBytes(int64(len(data)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			stream.Reset()
			stream.Write(data)
			var gotReq Request
			var gotResp Response
			if dec.Decode(&gotReq) != nil || dec.Decode(&gotResp) != nil {
				b.Fatal("decode failed")
			}
		}
	})
}
