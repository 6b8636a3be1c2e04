package corpus

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

func TestEntryLabels(t *testing.T) {
	e := &Entry{Title: "Planar Graph", Concepts: []string{"planar graph", "", "plane graph"}}
	got := e.Labels()
	if len(got) != 3 {
		t.Fatalf("labels = %v", got)
	}
	if got[0] != "Planar Graph" {
		t.Errorf("title not first: %v", got)
	}
}

func TestEntryValidate(t *testing.T) {
	if err := (&Entry{Domain: "d", Title: "x"}).Validate(); err != nil {
		t.Errorf("valid entry rejected: %v", err)
	}
	if err := (&Entry{Domain: "d"}).Validate(); err == nil {
		t.Error("labelless entry accepted")
	}
	if err := (&Entry{Title: "x"}).Validate(); err == nil {
		t.Error("domainless entry accepted")
	}
}

func TestEntryEncodeDecode(t *testing.T) {
	e := &Entry{
		ID: 7, Domain: "planetmath.org", ExternalID: "2761",
		Title: "planar graph", Concepts: []string{"plane graph"},
		Classes: []string{"05C10"}, Body: "a graph...", Policy: "forbid even",
	}
	data, err := e.Encode()
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeEntry(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.ID != 7 || back.Title != e.Title || back.Policy != e.Policy ||
		len(back.Concepts) != 1 || len(back.Classes) != 1 {
		t.Errorf("round trip = %+v", back)
	}
	if _, err := DecodeEntry([]byte("{bad json")); err == nil {
		t.Error("bad json accepted")
	}
}

func TestDomainURL(t *testing.T) {
	d := &Domain{
		Name:        "planetmath.org",
		URLTemplate: "http://planetmath.org/?op=getobj&id={id}&title={title}",
	}
	got := d.URL("2761", "planar graph")
	want := "http://planetmath.org/?op=getobj&id=2761&title=planar+graph"
	if got != want {
		t.Errorf("URL = %q, want %q", got, want)
	}
	// Reserved characters escape.
	got = d.URL("a/b", "x&y")
	if !strings.Contains(got, "a%2Fb") || !strings.Contains(got, "x%26y") {
		t.Errorf("URL = %q", got)
	}
}

// referenceURL is Domain.URL as it stood before it became one scan of the
// template: each placeholder replaced in its own pass over the whole string,
// each escaped value built byte by byte through fmt.
func referenceURL(d *Domain, externalID, title string) string {
	escape := func(s string) string {
		var b strings.Builder
		for i := 0; i < len(s); i++ {
			c := s[i]
			switch {
			case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
				c == '-', c == '_', c == '.', c == '~':
				b.WriteByte(c)
			case c == ' ':
				b.WriteByte('+')
			default:
				fmt.Fprintf(&b, "%%%02X", c)
			}
		}
		return b.String()
	}
	u := d.URLTemplate
	u = strings.ReplaceAll(u, "{id}", escape(externalID))
	u = strings.ReplaceAll(u, "{title}", escape(title))
	return u
}

// TestDomainURLEquivalence holds the single-scan expansion to the two-pass
// one: templates with no, one, repeated and adjacent placeholders, stray and
// nested braces, and ids and titles that between them hold every byte value,
// braces and placeholder names included.
func TestDomainURLEquivalence(t *testing.T) {
	templates := []string{
		"", "http://e/static", "http://e/{id}", "http://e/?t={title}", "{id}", "{title}",
		"http://e/{id}/{id}?t={title}&again={title}", "{id}{title}", "{title}{id}{id}",
		"http://e/{{id}}/{x}/{ id}/{ID}/{", "}{", "{id", "{titl}{title", "{{{title}}}", "é{id}ü{title}√",
	}
	var all [256]byte
	for i := range all {
		all[i] = byte(i)
	}
	values := []string{
		"", "2761", "planar graph", "a/b", "x&y", "{id}", "{title}", "{", "}", "%7B", "Möbius’ strip",
		string(all[:]), string(all[128:]) + string(all[:128]),
	}
	for _, tmpl := range templates {
		d := &Domain{URLTemplate: tmpl}
		for _, id := range values {
			for _, title := range values {
				if got, want := d.URL(id, title), referenceURL(d, id, title); got != want {
					t.Fatalf("template %q, id %q, title %q:\n got %q\nwant %q", tmpl, id, title, got, want)
				}
			}
		}
	}
	// Where one scan and two passes part: text around an {id} that spells
	// {title} once the id is in place. The two-pass form expanded what the
	// id had assembled; one scan never rescans a value it has written.
	d := &Domain{URLTemplate: "http://e/{ti{id}}"}
	if got := d.URL("tle", "T"); got != "http://e/{title}" {
		t.Errorf("URL = %q", got)
	}
}

// TestDomainURLAllocs gates URL expansion at one allocation, the URL.
func TestDomainURLAllocs(t *testing.T) {
	d := &Domain{URLTemplate: "http://planetmath.org/?op=getobj&id={id}&title={title}"}
	if n := testing.AllocsPerRun(100, func() { d.URL("2761", "planar graph & co") }); n > 1 {
		t.Errorf("URL allocates %v times, want 1", n)
	}
}

const sampleOAI = `<?xml version="1.0"?>
<records domain="mathworld.wolfram.com" scheme="msc">
  <record id="PlanarGraph">
    <title>Planar Graph</title>
    <concept>planar graph</concept>
    <concept>plane graph</concept>
    <class>05C10</class>
    <body>A graph is planar if it can be drawn in the plane.</body>
  </record>
  <record id="EvenNumber">
    <title>Even Number</title>
    <concept>even</concept>
    <class>11A51</class>
    <policy>forbid even
allow even from 11-XX</policy>
  </record>
</records>`

func TestImportOAI(t *testing.T) {
	res, err := ImportOAI(strings.NewReader(sampleOAI))
	if err != nil {
		t.Fatal(err)
	}
	if res.Domain != "mathworld.wolfram.com" || res.Scheme != "msc" {
		t.Errorf("meta = %q %q", res.Domain, res.Scheme)
	}
	if len(res.Entries) != 2 {
		t.Fatalf("entries = %d", len(res.Entries))
	}
	pg := res.Entries[0]
	if pg.ExternalID != "PlanarGraph" || len(pg.Concepts) != 2 || pg.Classes[0] != "05C10" {
		t.Errorf("entry = %+v", pg)
	}
	if !strings.Contains(res.Entries[1].Policy, "forbid even") {
		t.Errorf("policy = %q", res.Entries[1].Policy)
	}
}

func TestImportOAIErrors(t *testing.T) {
	bad := []string{
		`<records scheme="msc"><record id="x"><title>t</title></record></records>`, // no domain
		`<records domain="d"><record id="x"></record></records>`,                   // no labels
		`not xml`,
	}
	for _, doc := range bad {
		if _, err := ImportOAI(strings.NewReader(doc)); err == nil {
			t.Errorf("accepted: %s", doc)
		}
	}
}

func TestExportImportRoundTrip(t *testing.T) {
	entries := []*Entry{
		{Domain: "d", ExternalID: "1", Title: "alpha", Concepts: []string{"a1"},
			Classes: []string{"05Cxx"}, Body: "body text", Policy: "forbid a1"},
		{Domain: "d", ExternalID: "2", Title: "beta"},
	}
	var buf bytes.Buffer
	if err := ExportOAI(&buf, "d", "msc", entries); err != nil {
		t.Fatal(err)
	}
	back, err := ImportOAI(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("reimport: %v\ndoc:\n%s", err, buf.String())
	}
	if len(back.Entries) != 2 {
		t.Fatalf("entries = %d", len(back.Entries))
	}
	if back.Entries[0].Title != "alpha" || back.Entries[0].Policy != "forbid a1" ||
		back.Entries[0].Body != "body text" {
		t.Errorf("entry = %+v", back.Entries[0])
	}
}

func TestImportOAIStream(t *testing.T) {
	var got []*Entry
	domain, scheme, err := ImportOAIStream(strings.NewReader(sampleOAI), func(e *Entry) error {
		got = append(got, e)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if domain != "mathworld.wolfram.com" || scheme != "msc" {
		t.Errorf("meta = %q %q", domain, scheme)
	}
	if len(got) != 2 || got[0].ExternalID != "PlanarGraph" || len(got[0].Concepts) != 2 {
		t.Fatalf("entries = %+v", got)
	}
	if !strings.Contains(got[1].Policy, "forbid even") {
		t.Errorf("policy = %q", got[1].Policy)
	}
}

func TestImportOAIStreamAbort(t *testing.T) {
	calls := 0
	wantErr := fmt.Errorf("stop here")
	_, _, err := ImportOAIStream(strings.NewReader(sampleOAI), func(e *Entry) error {
		calls++
		return wantErr
	})
	if err != wantErr || calls != 1 {
		t.Errorf("err = %v, calls = %d", err, calls)
	}
}

func TestImportOAIStreamErrors(t *testing.T) {
	cases := map[string]string{
		"no records": `<other/>`,
		"no domain":  `<records scheme="msc"><record id="x"><title>t</title></record></records>`,
		"bad record": `<records domain="d"><record id="x"></record></records>`,
		"truncated":  `<records domain="d"><record id="x"><title>t</ti`,
	}
	for name, doc := range cases {
		if _, _, err := ImportOAIStream(strings.NewReader(doc), func(e *Entry) error { return nil }); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

// The streaming importer must agree with the batch importer on big dumps.
func TestImportOAIStreamMatchesBatch(t *testing.T) {
	var entries []*Entry
	for i := 0; i < 500; i++ {
		entries = append(entries, &Entry{
			Domain: "d", ExternalID: fmt.Sprintf("e%d", i),
			Title: fmt.Sprintf("concept %d", i), Classes: []string{"05C10"},
			Body: fmt.Sprintf("body %d", i),
		})
	}
	var buf bytes.Buffer
	if err := ExportOAI(&buf, "d", "msc", entries); err != nil {
		t.Fatal(err)
	}
	doc := buf.String()
	batch, err := ImportOAI(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	var streamed []*Entry
	_, _, err = ImportOAIStream(strings.NewReader(doc), func(e *Entry) error {
		streamed = append(streamed, e)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(streamed) != len(batch.Entries) {
		t.Fatalf("streamed %d vs batch %d", len(streamed), len(batch.Entries))
	}
	for i := range streamed {
		if streamed[i].Title != batch.Entries[i].Title || streamed[i].Body != batch.Entries[i].Body {
			t.Fatalf("record %d differs", i)
		}
	}
}
