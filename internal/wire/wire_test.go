package wire

import (
	"bytes"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
	"unicode/utf8"

	"nnexus/internal/corpus"
)

func TestRequestRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	enc := NewEncoder(&buf)
	reqs := []*Request{
		{Seq: 1, Method: MethodPing},
		{Seq: 2, Method: MethodAddDomain, Domain: &corpus.Domain{
			Name: "planetmath.org", URLTemplate: "http://pm/{id}", Scheme: "msc", Priority: 1,
		}},
		{Seq: 3, Method: MethodAddEntry, Entry: &corpus.Entry{
			Domain: "planetmath.org", Title: "planar graph",
			Concepts: []string{"plane graph"}, Classes: []string{"05C10"},
			Body: "text with $math$ inside", Policy: "forbid even",
		}},
		{Seq: 4, Method: MethodLinkText, Text: "a planar graph",
			Classes: []string{"05C10", "05C40"}, Scheme: "msc", Mode: "steered"},
		{Seq: 5, Method: MethodRemoveEntry, Object: 42},
	}
	for _, r := range reqs {
		if err := enc.Encode(r); err != nil {
			t.Fatal(err)
		}
	}
	dec := NewDecoder(&buf)
	for i, want := range reqs {
		var got Request
		if err := dec.Decode(&got); err != nil {
			t.Fatalf("decode %d: %v", i, err)
		}
		if got.Seq != want.Seq || got.Method != want.Method || got.Object != want.Object {
			t.Errorf("req %d = %+v", i, got)
		}
		if want.Entry != nil {
			if got.Entry == nil || got.Entry.Title != want.Entry.Title ||
				got.Entry.Policy != want.Entry.Policy ||
				len(got.Entry.Concepts) != len(want.Entry.Concepts) {
				t.Errorf("entry %d = %+v", i, got.Entry)
			}
		}
		if want.Domain != nil && (got.Domain == nil || got.Domain.Name != want.Domain.Name) {
			t.Errorf("domain %d = %+v", i, got.Domain)
		}
		if len(got.Classes) != len(want.Classes) {
			t.Errorf("classes %d = %v", i, got.Classes)
		}
	}
	var extra Request
	if err := dec.Decode(&extra); err != io.EOF {
		t.Errorf("expected EOF, got %v", err)
	}
}

func TestResponseRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	enc := NewEncoder(&buf)
	resps := []*Response{
		{Seq: 1, Status: "ok", Object: 7},
		{Seq: 2, Status: "error", Error: "core: unknown domain"},
		{Seq: 3, Status: "ok", Linked: &Linked{
			Output: `a <a href="u">planar graph</a>`,
			Links:  []LinkInfo{{Label: "planar graph", Start: 2, End: 14, Target: 2, URL: "u", Distance: 2}},
			Skips:  []SkipInfo{{Label: "even", Reason: "policy"}},
		}},
		{Seq: 4, Status: "ok", Stats: &Stats{Entries: 7145, Concepts: 12171, Domains: 2}},
		{Seq: 5, Status: "ok", Invalidated: []int64{3, 9, 27}},
	}
	for _, r := range resps {
		if err := enc.Encode(r); err != nil {
			t.Fatal(err)
		}
	}
	dec := NewDecoder(&buf)
	for i, want := range resps {
		var got Response
		if err := dec.Decode(&got); err != nil {
			t.Fatalf("decode %d: %v", i, err)
		}
		if got.Status != want.Status || got.Error != want.Error || got.Object != want.Object {
			t.Errorf("resp %d = %+v", i, got)
		}
		if want.Linked != nil {
			if got.Linked == nil || got.Linked.Output != want.Linked.Output ||
				len(got.Linked.Links) != 1 || got.Linked.Links[0].Target != 2 ||
				len(got.Linked.Skips) != 1 {
				t.Errorf("linked %d = %+v", i, got.Linked)
			}
		}
		if want.Stats != nil && (got.Stats == nil || got.Stats.Concepts != 12171) {
			t.Errorf("stats %d = %+v", i, got.Stats)
		}
		if len(got.Invalidated) != len(want.Invalidated) {
			t.Errorf("invalidated %d = %v", i, got.Invalidated)
		}
	}
}

func TestOKAndErr(t *testing.T) {
	req := &Request{Seq: 42, Method: MethodPing}
	ok := OK(req)
	if !ok.IsOK() || ok.Seq != 42 {
		t.Errorf("OK = %+v", ok)
	}
	er := Err(req, io.ErrUnexpectedEOF)
	if er.IsOK() || er.Error == "" || er.Seq != 42 {
		t.Errorf("Err = %+v", er)
	}
}

func TestDecodeGarbage(t *testing.T) {
	dec := NewDecoder(bytes.NewReader([]byte("this is not xml <<<")))
	var req Request
	if err := dec.Decode(&req); err == nil || err == io.EOF {
		t.Errorf("garbage decoded: %v", err)
	}
}

// Text with XML-special characters must round-trip unharmed.
func TestSpecialCharactersRoundTrip(t *testing.T) {
	f := func(body string) bool {
		if !utf8.ValidString(body) {
			return true // the encoder substitutes U+FFFD; not a round trip
		}
		var buf bytes.Buffer
		enc := NewEncoder(&buf)
		if err := enc.Encode(&Request{Method: MethodLinkText, Text: body}); err != nil {
			return false
		}
		var got Request
		if err := NewDecoder(&buf).Decode(&got); err != nil {
			return false
		}
		return got.Text == sanitizeForXML(body)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// sanitizeForXML mirrors encoding/xml's behaviour: characters invalid in
// XML 1.0 are replaced with U+FFFD by the encoder, and \r is normalized to
// \n by the decoder's line-ending handling. For ordinary text the function
// is the identity.
func sanitizeForXML(s string) string {
	out := make([]rune, 0, len(s))
	for _, r := range s {
		switch {
		case r == 0x0D:
			out = append(out, 0x0A)
		case r == 0x09 || r == 0x0A ||
			(r >= 0x20 && r <= 0xD7FF) || (r >= 0xE000 && r <= 0xFFFD) ||
			(r >= 0x10000 && r <= 0x10FFFF):
			out = append(out, r)
		default:
			out = append(out, 0xFFFD)
		}
	}
	return string(out)
}

// TestMethodsListsEveryMethod: Methods is the one table of protocol methods
// (routing, retries, admission and the server's per-method counters read
// it), so every Method* constant declared in wire.go must be in it exactly
// once, with one of the four kinds.
func TestMethodsListsEveryMethod(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "wire.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	listed := map[string]int{}
	for m, kind := range Methods {
		listed[m]++
		if kind < KindWrite || kind > KindControl {
			t.Errorf("%q has kind %d, want one of the four", m, kind)
		}
	}
	declared := 0
	ast.Inspect(f, func(n ast.Node) bool {
		vs, ok := n.(*ast.ValueSpec)
		if !ok || len(vs.Names) != 1 || !strings.HasPrefix(vs.Names[0].Name, "Method") || len(vs.Values) != 1 {
			return true
		}
		lit, ok := vs.Values[0].(*ast.BasicLit)
		if !ok {
			return true
		}
		declared++
		if name, _ := strconv.Unquote(lit.Value); listed[name] != 1 {
			t.Errorf("%s (%q) is listed %d times in Methods, want once", vs.Names[0].Name, name, listed[name])
		}
		return true
	})
	if declared != len(Methods) {
		t.Errorf("wire.go declares %d methods, Methods lists %d", declared, len(Methods))
	}
}
