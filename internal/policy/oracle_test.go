package policy

import (
	"strings"
	"testing"

	"nnexus/internal/classification"
	"nnexus/internal/morph"
)

// label is a concept label as a scan reports it to Permits: the ID of its
// normal form in the label table. A label that normalizes to "" is one no
// scan reports; it gets 0, which no directive's label has.
func label(s string) int32 {
	norm := morph.NormalizeLabel(s)
	if norm == "" {
		return 0
	}
	return morph.InternLabel(norm)
}

// permitsByString is Permits as it read while a label was a string: it
// normalizes the label and compares it with each directive's. It is the
// oracle FuzzPermitsByID holds Permits to.
func (p *Policy) permitsByString(scheme *classification.Scheme, sourceClasses []string, label string) bool {
	if p == nil || len(p.Directives) == 0 {
		return true
	}
	norm := morph.NormalizeLabel(label)
	if e, ok := p.decideByString(scheme, sourceClasses, norm, false); ok {
		return e == Permit
	}
	if e, ok := p.decideByString(scheme, sourceClasses, norm, true); ok {
		return e == Permit
	}
	return true
}

func (p *Policy) decideByString(scheme *classification.Scheme, sourceClasses []string, norm string, wildcard bool) (Effect, bool) {
	var effect Effect
	found := false
	for _, d := range p.Directives {
		if wildcard != (d.Label == "*") {
			continue
		}
		if !wildcard && d.Label != norm {
			continue
		}
		if !classMatch(scheme, sourceClasses, d.Classes) {
			continue
		}
		effect = d.Effect // last match wins
		found = true
	}
	return effect, found
}

// FuzzPermitsByID holds Permits, which compares label IDs, to the string
// comparison it replaced, for any policy text, source classes and concept
// label. A "$" in the text stands for the label, so that directives naming
// it are common. A label that normalizes to "" is skipped: no scan reports
// one.
func FuzzPermitsByID(f *testing.F) {
	for _, seed := range []struct{ text, label, classes string }{
		{"forbid $\nallow $ from 11-XX", "even", "11A51"},
		{"forbid $\nallow $ from 11-XX", "Even Numbers", "05C40"},
		{"forbid *\nallow * from 05Cxx, 05-XX", "graph", "05C10,03E20"},
		{"forbid *\nallow $", "graph", "11A51"},
		{"allow $\nforbid $\nallow $ from 05-XX", "even", "05C10"},
		{"forbid ***\nforbid '\nallow * from 03E20", "x", "05C10"},
		{"forbid $'s\nallow planar graphs from 05C10", "Planar Graph", ""},
	} {
		f.Add(seed.text, seed.label, seed.classes)
	}
	scheme := classification.SampleMSC(10)
	f.Fuzz(func(t *testing.T, text, lbl, classes string) {
		if morph.NormalizeLabel(lbl) == "" {
			t.Skip()
		}
		text = strings.ReplaceAll(text, "$", lbl)
		p, err := Parse(text)
		if err != nil {
			return
		}
		var src []string
		for _, c := range strings.Split(classes, ",") {
			if c = strings.TrimSpace(c); c != "" {
				src = append(src, c)
			}
		}
		id := label(lbl)
		for _, s := range []*classification.Scheme{scheme, nil} {
			if got, want := p.Permits(s, src, id), p.permitsByString(s, src, lbl); got != want {
				t.Fatalf("policy %q, label %q from %q: Permits = %v, the string comparison %v", text, lbl, src, got, want)
			}
		}
	})
}
