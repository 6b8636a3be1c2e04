package policy

import (
	"strings"
	"testing"

	"nnexus/internal/classification"
)

func msc() *classification.Scheme {
	return classification.SampleMSC(10)
}

func TestParseBasic(t *testing.T) {
	p, err := Parse("forbid even\nallow even from 11-XX\n")
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Directives) != 2 {
		t.Fatalf("directives = %+v", p.Directives)
	}
	if p.Directives[0].Effect != Forbid || p.Directives[0].Label != "even" {
		t.Errorf("d0 = %+v", p.Directives[0])
	}
	if p.Directives[1].Effect != Permit || len(p.Directives[1].Classes) != 1 ||
		p.Directives[1].Classes[0] != "11-XX" {
		t.Errorf("d1 = %+v", p.Directives[1])
	}
}

func TestParseCommentsAndBlank(t *testing.T) {
	p, err := Parse("# a comment\n\n  \nforbid graph\n")
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Directives) != 1 {
		t.Fatalf("directives = %+v", p.Directives)
	}
}

func TestParseMultiClassList(t *testing.T) {
	p, err := Parse("allow * from 05Cxx, 05-XX , 11Axx")
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Directives[0].Classes; len(got) != 3 {
		t.Fatalf("classes = %v", got)
	}
}

func TestParseNormalizesLabels(t *testing.T) {
	p, err := Parse("forbid Even Numbers")
	if err != nil {
		t.Fatal(err)
	}
	if p.Directives[0].Label != "even number" {
		t.Errorf("label = %q", p.Directives[0].Label)
	}
}

func TestParseErrors(t *testing.T) {
	for _, bad := range []string{
		"deny even",
		"forbid",
		"allow even from",
		"forbid   ",
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) succeeded", bad)
		}
	}
}

func TestParseLabelContainingFromSubstring(t *testing.T) {
	// "fromage" must not be split at "from".
	p, err := Parse("forbid fromage")
	if err != nil {
		t.Fatal(err)
	}
	if p.Directives[0].Label != "fromage" || p.Directives[0].Classes != nil {
		t.Errorf("directive = %+v", p.Directives[0])
	}
}

// The paper's canonical example: "the entry for 'even number' would forbid
// all articles from linking to the concept 'even' unless they were in the
// number theory category."
func TestEvenNumberPolicy(t *testing.T) {
	s := msc()
	p, err := Parse("forbid even\nallow even from 11-XX")
	if err != nil {
		t.Fatal(err)
	}
	// A graph-theory article must not link "even".
	if p.Permits(s, []string{"05C40"}, "even") {
		t.Error("graph-theory source was permitted to link 'even'")
	}
	// A number-theory article (class under 11-XX) may.
	if !p.Permits(s, []string{"11A51"}, "even") {
		t.Error("number-theory source was forbidden")
	}
	// The other concept of the entry, "even number", is unaffected.
	if !p.Permits(s, []string{"05C40"}, "even number") {
		t.Error("'even number' suppressed by 'even' policy")
	}
}

func TestWildcardPolicy(t *testing.T) {
	s := msc()
	p, err := Parse("forbid *\nallow * from 05Cxx")
	if err != nil {
		t.Fatal(err)
	}
	if p.Permits(s, []string{"11A51"}, "anything") {
		t.Error("wildcard forbid did not apply")
	}
	if !p.Permits(s, []string{"05C10"}, "anything") {
		t.Error("wildcard allow from subtree did not apply")
	}
}

func TestExactBeatsWildcard(t *testing.T) {
	s := msc()
	p, err := Parse("forbid *\nallow graph")
	if err != nil {
		t.Fatal(err)
	}
	if !p.Permits(s, []string{"11A51"}, "graph") {
		t.Error("exact allow should override wildcard forbid")
	}
	if p.Permits(s, []string{"11A51"}, "other") {
		t.Error("wildcard forbid should still apply to other labels")
	}
}

func TestLastMatchWins(t *testing.T) {
	s := msc()
	p, err := Parse("allow even\nforbid even")
	if err != nil {
		t.Fatal(err)
	}
	if p.Permits(s, []string{"05C40"}, "even") {
		t.Error("later forbid should win")
	}
}

func TestDefaultPermit(t *testing.T) {
	s := msc()
	p, err := Parse("forbid even")
	if err != nil {
		t.Fatal(err)
	}
	if !p.Permits(s, []string{"05C40"}, "odd") {
		t.Error("unmentioned label should default to permit")
	}
	var nilPolicy *Policy
	if !nilPolicy.Permits(s, []string{"05C40"}, "even") {
		t.Error("nil policy should permit")
	}
}

func TestSubtreeMatching(t *testing.T) {
	s := msc()
	p, err := Parse("forbid even\nallow even from 05-XX")
	if err != nil {
		t.Fatal(err)
	}
	// 05C10 is a descendant of 05-XX.
	if !p.Permits(s, []string{"05C10"}, "even") {
		t.Error("descendant class not matched by subtree rule")
	}
	if p.Permits(s, []string{"03E20"}, "even") {
		t.Error("non-descendant matched")
	}
	// Source with no classes cannot satisfy a "from" clause.
	if p.Permits(s, nil, "even") {
		t.Error("classless source matched a from clause")
	}
}

func TestSourceRoundTrip(t *testing.T) {
	text := "forbid even\nallow even from 11-XX"
	p, err := Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	if p.Source() != text {
		t.Errorf("source = %q", p.Source())
	}
	if Forbid.String() != "forbid" || Permit.String() != "allow" {
		t.Error("Effect.String mismatch")
	}
	// Re-parsing a rendered policy gives the same directives.
	p2, err := Parse(p.Source())
	if err != nil {
		t.Fatal(err)
	}
	if len(p2.Directives) != len(p.Directives) {
		t.Error("round trip changed directive count")
	}
}

func TestPolicyPluralInvariance(t *testing.T) {
	s := msc()
	p, err := Parse("forbid even numbers")
	if err != nil {
		t.Fatal(err)
	}
	if p.Permits(s, []string{"05C40"}, "Even Number") {
		t.Error("policy label not morphologically normalized")
	}
}

func TestLargePolicyText(t *testing.T) {
	var b strings.Builder
	for i := 0; i < 500; i++ {
		b.WriteString("forbid label")
		b.WriteByte(byte('a' + i%26))
		b.WriteByte('\n')
	}
	p, err := Parse(b.String())
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Directives) != 500 {
		t.Errorf("directives = %d", len(p.Directives))
	}
}
