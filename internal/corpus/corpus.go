// Package corpus defines the document model of NNexus: entries (the paper's
// "objects"), the per-site domain configuration used for multi-corpus
// deployments, and an OAI-style XML import path mirroring how concepts were
// "imported from MathWorld using that site's OAI repository" (paper Fig 9).
package corpus

import (
	"encoding/xml"
	"fmt"
	"io"
	"strings"
)

// DefaultCorpus is the corpus namespace entries belong to when none is
// named.
const DefaultCorpus = "default"

// CorpusOrDefault normalizes a corpus ID: empty means DefaultCorpus.
func CorpusOrDefault(name string) string {
	if name == "" {
		return DefaultCorpus
	}
	return name
}

// Entry is one object of a collaborative corpus together with the metadata
// NNexus links by: the concept labels it defines and its subject classes.
// Its xml tags are its element in the socket protocol and its stored record
// (internal/wire); its json tags its form in the HTTP API.
type Entry struct {
	// ID is the engine-wide numeric identity, assigned at AddEntry time.
	// IDs are global across corpora (one sequence), so cross-corpus
	// tie-breaks stay deterministic.
	ID int64 `xml:"id,attr,omitempty" json:"id"`
	// Corpus names the corpus namespace the entry belongs to. Empty means
	// DefaultCorpus, and the engine normalizes it at ingest.
	Corpus string `xml:"corpus,attr,omitempty" json:"corpus,omitempty"`
	// Domain names the corpus the entry belongs to (e.g. "planetmath.org").
	Domain string `xml:"domain,attr,omitempty" json:"domain"`
	// ExternalID is the entry's identity within its own domain (used in
	// link URLs; defaults to the decimal ID).
	ExternalID string `xml:"externalid,attr,omitempty" json:"externalId,omitempty"`
	// Title is the canonical name of the entry and always counts as a
	// concept label.
	Title string `xml:"title" json:"title"`
	// Concepts are the additional concept labels the entry defines
	// (defined terms and synonyms).
	Concepts []string `xml:"concept,omitempty" json:"concepts,omitempty"`
	// Classes are subject classifications in the domain's scheme.
	Classes []string `xml:"class,omitempty" json:"classes,omitempty"`
	// Body is the entry text to be linked.
	Body string `xml:"body,omitempty" json:"body,omitempty"`
	// Policy is the optional linking-policy text chunk (see policy pkg).
	Policy string `xml:"policy,omitempty" json:"policy,omitempty"`
}

// Labels returns every concept label of the entry: the title plus the
// defined concepts, in order, without blanks.
func (e *Entry) Labels() []string {
	out := make([]string, 0, 1+len(e.Concepts))
	if strings.TrimSpace(e.Title) != "" {
		out = append(out, e.Title)
	}
	for _, c := range e.Concepts {
		if strings.TrimSpace(c) != "" {
			out = append(out, c)
		}
	}
	return out
}

// Validate reports structural problems with the entry.
func (e *Entry) Validate() error {
	if len(e.Labels()) == 0 {
		return fmt.Errorf("corpus: entry %d (%q) defines no concept labels", e.ID, e.Title)
	}
	if e.Domain == "" {
		return fmt.Errorf("corpus: entry %d (%q) has no domain", e.ID, e.Title)
	}
	return nil
}

// Domain describes one corpus participating in a deployment: how to build
// links into it, which classification scheme its classes use, and its
// collection priority when several domains define the same concept
// (paper Fig 9: "a collection priority configuration option determined the
// outcome").
type Domain struct {
	// Name is the unique domain name, e.g. "planetmath.org".
	Name string `xml:"name,attr" json:"name"`
	// URLTemplate builds the href for a target entry. The placeholders
	// {id} and {title} expand to the entry's external ID and
	// URL-escaped title.
	URLTemplate string `xml:"urltemplate" json:"urlTemplate"`
	// Scheme names the classification scheme the domain's classes use.
	Scheme string `xml:"scheme,omitempty" json:"scheme"`
	// Priority breaks cross-domain ties; lower wins. Domains with equal
	// priority tie-break by entry ID.
	Priority int `xml:"priority,omitempty" json:"priority"`
}

// URL renders the link target URL for an entry of this domain: the template
// with every "{id}" replaced by the URL-escaped external ID and every
// "{title}" by the URL-escaped title. It is one scan of the template into
// one buffer, so the URL itself is the call's only allocation; what an id or
// a title expands to is never rescanned for placeholders.
func (d *Domain) URL(externalID, title string) string {
	var scratch [128]byte
	b, t := scratch[:0], d.URLTemplate
	for {
		i := strings.IndexByte(t, '{')
		if i < 0 {
			return string(append(b, t...))
		}
		b, t = append(b, t[:i]...), t[i:]
		switch {
		case strings.HasPrefix(t, "{id}"):
			b, t = appendURLEscaped(b, externalID), t[len("{id}"):]
		case strings.HasPrefix(t, "{title}"):
			b, t = appendURLEscaped(b, title), t[len("{title}"):]
		default:
			b, t = append(b, '{'), t[1:]
		}
	}
}

// appendURLEscaped appends s to b with every byte outside the unreserved set
// percent-encoded, and a space as "+".
func appendURLEscaped(b []byte, s string) []byte {
	const hex = "0123456789ABCDEF"
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '-', c == '_', c == '.', c == '~':
			b = append(b, c)
		case c == ' ':
			b = append(b, '+')
		default:
			b = append(b, '%', hex[c>>4], hex[c&0xF])
		}
	}
	return b
}

// oaiRecord mirrors the OAI-PMH-flavoured import format:
//
//	<records domain="mathworld.wolfram.com" scheme="msc">
//	  <record id="PlanarGraph">
//	    <title>Planar Graph</title>
//	    <concept>planar graph</concept>
//	    <class>05C10</class>
//	    <body>...</body>
//	    <policy>forbid even</policy>
//	  </record>
//	</records>
type oaiRecords struct {
	XMLName xml.Name    `xml:"records"`
	Domain  string      `xml:"domain,attr"`
	Scheme  string      `xml:"scheme,attr"`
	Records []oaiRecord `xml:"record"`
}

type oaiRecord struct {
	ID       string   `xml:"id,attr"`
	Title    string   `xml:"title"`
	Concepts []string `xml:"concept"`
	Classes  []string `xml:"class"`
	Body     string   `xml:"body"`
	Policy   string   `xml:"policy"`
}

// ImportResult reports what an OAI import contained.
type ImportResult struct {
	Domain  string
	Scheme  string
	Entries []*Entry
}

// ImportOAI parses an OAI-style XML metadata dump into entries: everything
// ImportOAIStream yields, collected. IDs are left zero; the engine assigns
// them at AddEntry time.
func ImportOAI(r io.Reader) (*ImportResult, error) {
	res := &ImportResult{}
	var err error
	res.Domain, res.Scheme, err = ImportOAIStream(r, func(e *Entry) error {
		res.Entries = append(res.Entries, e)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// ImportOAIStream parses an OAI-style dump record by record, calling fn for
// each entry as soon as it is decoded — constant memory regardless of dump
// size, for importing full-corpus exports. fn returning an error aborts the
// import. The callback receives the dump's domain and scheme with every
// entry already filled in.
func ImportOAIStream(r io.Reader, fn func(*Entry) error) (domain, scheme string, err error) {
	dec := xml.NewDecoder(r)
	recordNo := 0
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			if domain == "" {
				return "", "", fmt.Errorf("corpus: import: no records element found")
			}
			return domain, scheme, nil
		}
		if err != nil {
			return domain, scheme, fmt.Errorf("corpus: import: %w", err)
		}
		start, ok := tok.(xml.StartElement)
		if !ok {
			continue
		}
		switch start.Name.Local {
		case "records":
			for _, attr := range start.Attr {
				switch attr.Name.Local {
				case "domain":
					domain = attr.Value
				case "scheme":
					scheme = attr.Value
				}
			}
			if domain == "" {
				return "", "", fmt.Errorf("corpus: import: records element missing domain attribute")
			}
		case "record":
			if domain == "" {
				return "", "", fmt.Errorf("corpus: import: record before records element")
			}
			var rec oaiRecord
			if err := dec.DecodeElement(&rec, &start); err != nil {
				return domain, scheme, fmt.Errorf("corpus: import record %d: %w", recordNo, err)
			}
			e := &Entry{
				Domain:     domain,
				ExternalID: rec.ID,
				Title:      strings.TrimSpace(rec.Title),
				Concepts:   trimAll(rec.Concepts),
				Classes:    trimAll(rec.Classes),
				Body:       rec.Body,
				Policy:     strings.TrimSpace(rec.Policy),
			}
			if err := e.Validate(); err != nil {
				return domain, scheme, fmt.Errorf("corpus: import record %d: %w", recordNo, err)
			}
			if err := fn(e); err != nil {
				return domain, scheme, err
			}
			recordNo++
		}
	}
}

// ExportOAI writes entries in the import format, for moving corpora between
// deployments.
func ExportOAI(w io.Writer, domain, scheme string, entries []*Entry) error {
	doc := oaiRecords{Domain: domain, Scheme: scheme}
	for _, e := range entries {
		doc.Records = append(doc.Records, oaiRecord{
			ID:       e.ExternalID,
			Title:    e.Title,
			Concepts: e.Concepts,
			Classes:  e.Classes,
			Body:     e.Body,
			Policy:   e.Policy,
		})
	}
	if _, err := io.WriteString(w, xml.Header); err != nil {
		return err
	}
	enc := xml.NewEncoder(w)
	enc.Indent("", "  ")
	if err := enc.Encode(doc); err != nil {
		return fmt.Errorf("corpus: export: %w", err)
	}
	_, err := io.WriteString(w, "\n")
	return err
}

func trimAll(in []string) []string {
	out := in[:0]
	for _, s := range in {
		if t := strings.TrimSpace(s); t != "" {
			out = append(out, t)
		}
	}
	return out
}
