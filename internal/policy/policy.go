// Package policy implements NNexus linking policies (paper §2.4, Fig 5):
// per-object, user-supplied directives that control, in terms of subject
// classes, where links to the object's concepts may or may not be made.
//
// The canonical use case is overlinking suppression: the entry defining
// "even number" carries a policy forbidding any article from linking to its
// synonym "even" unless the article is in the number-theory category.
//
// A policy is a small line-oriented text chunk:
//
//	# comments and blank lines are ignored
//	forbid even
//	allow even from 11-XX
//	forbid *
//	allow * from 05Cxx, 05-XX
//
// Each directive names a concept label (or * for all of the object's
// concepts) and optionally a "from" list of classes; a class matches when
// the link source has a classification inside that class's subtree.
// Directives are evaluated in order; exact-label directives take precedence
// over * directives; among directives of equal specificity the last match
// wins. The default, with no matching directive, is to permit the link.
package policy

import (
	"fmt"
	"strings"

	"nnexus/internal/classification"
	"nnexus/internal/morph"
)

// Effect is what a directive does when it matches.
type Effect int

const (
	// Permit allows the link.
	Permit Effect = iota
	// Forbid suppresses the link.
	Forbid
)

func (e Effect) String() string {
	if e == Forbid {
		return "forbid"
	}
	return "allow"
}

// Directive is one parsed policy line.
type Directive struct {
	Effect  Effect
	Label   string   // normalized concept label, or "*" for all
	Classes []string // "from" classes; empty means "from anywhere"
}

// Policy is the parsed linking policy of a single target object.
type Policy struct {
	Directives []Directive
	source     string
}

// Source returns the original policy text.
func (p *Policy) Source() string { return p.source }

// Parse parses a policy text chunk. Unknown keywords or malformed lines are
// reported with their line number.
func Parse(text string) (*Policy, error) {
	p := &Policy{source: text}
	for lineNo, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		d, err := parseLine(line)
		if err != nil {
			return nil, fmt.Errorf("policy: line %d: %w", lineNo+1, err)
		}
		p.Directives = append(p.Directives, d)
	}
	return p, nil
}

func parseLine(line string) (Directive, error) {
	var d Directive
	fields := strings.Fields(line)
	switch strings.ToLower(fields[0]) {
	case "forbid":
		d.Effect = Forbid
	case "allow", "permit":
		d.Effect = Permit
	default:
		return d, fmt.Errorf("unknown keyword %q", fields[0])
	}
	rest := strings.TrimSpace(line[len(fields[0]):])
	if rest == "" {
		return d, fmt.Errorf("missing concept label after %q", fields[0])
	}
	labelPart := rest
	if i := indexWord(rest, "from"); i >= 0 {
		labelPart = strings.TrimSpace(rest[:i])
		classPart := strings.TrimSpace(rest[i+len("from"):])
		if classPart == "" {
			return d, fmt.Errorf("empty class list after \"from\"")
		}
		for _, c := range strings.Split(classPart, ",") {
			c = strings.TrimSpace(c)
			if c != "" {
				d.Classes = append(d.Classes, c)
			}
		}
	}
	if labelPart == "" {
		return d, fmt.Errorf("missing concept label")
	}
	if labelPart == "*" {
		d.Label = "*"
	} else {
		d.Label = morph.NormalizeLabel(labelPart)
	}
	return d, nil
}

// indexWord finds the keyword as a standalone word (so a concept label
// containing "from" as a substring is not split).
func indexWord(s, word string) int {
	for i := 0; i+len(word) <= len(s); i++ {
		if s[i:i+len(word)] != word {
			continue
		}
		beforeOK := i == 0 || s[i-1] == ' ' || s[i-1] == '\t'
		after := i + len(word)
		afterOK := after == len(s) || s[after] == ' ' || s[after] == '\t'
		if beforeOK && afterOK {
			return i
		}
	}
	return -1
}

// Permits decides whether a link from a source entry (with the given
// classes, in scheme) to the target object's concept label is allowed under
// this policy. A nil policy permits everything.
func (p *Policy) Permits(scheme *classification.Scheme, sourceClasses []string, label string) bool {
	if p == nil || len(p.Directives) == 0 {
		return true
	}
	norm := morph.NormalizeLabel(label)
	// Two passes: exact-label directives dominate wildcard directives.
	if e, ok := p.decide(scheme, sourceClasses, norm, false); ok {
		return e == Permit
	}
	if e, ok := p.decide(scheme, sourceClasses, norm, true); ok {
		return e == Permit
	}
	return true
}

func (p *Policy) decide(scheme *classification.Scheme, sourceClasses []string, norm string, wildcard bool) (Effect, bool) {
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

// classMatch reports whether the directive's class list covers the source.
// An empty directive class list matches any source.
func classMatch(scheme *classification.Scheme, sourceClasses, directiveClasses []string) bool {
	if len(directiveClasses) == 0 {
		return true
	}
	if scheme == nil {
		return false
	}
	for _, sc := range sourceClasses {
		for _, dc := range directiveClasses {
			if sc == dc || scheme.IsDescendant(sc, dc) {
				return true
			}
		}
	}
	return false
}
