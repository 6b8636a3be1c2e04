package ontomap

import (
	"reflect"
	"testing"
)

func TestMSCToWikipediaPrefixRules(t *testing.T) {
	m := NewMSCToWikipedia()
	// A concrete MSC class maps through its area prefix rule.
	got, ok := m.Map("05C10")
	if !ok {
		t.Fatal("05C10 unmapped")
	}
	want := []string{"Combinatorics", "Graph theory"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("05C10 → %v, want %v", got, want)
	}
	// The bare area root maps too.
	if got, ok := m.Map("11"); !ok || got[0] != "Number theory" {
		t.Fatalf("11 → %v (%v)", got, ok)
	}
	// Areas outside the table stay unmapped (steering treats the entry as
	// unclassified instead of guessing).
	if _, ok := m.Map("97A10"); ok {
		t.Fatal("unknown area mapped")
	}
}

func TestWikipediaToMSCAreaRoots(t *testing.T) {
	m := NewWikipediaToMSC()
	if got, ok := m.Map("Graph theory"); !ok || len(got) != 1 || got[0] != "05" {
		t.Fatalf("Graph theory → %v (%v), want [05]", got, ok)
	}
	if got, ok := m.Map("Number theory"); !ok || got[0] != "11" {
		t.Fatalf("Number theory → %v (%v), want [11]", got, ok)
	}
	if _, ok := m.Map("Cooking"); ok {
		t.Fatal("non-math category mapped")
	}
}

func TestRoundTripThroughRegistry(t *testing.T) {
	r := NewRegistry()
	for _, m := range []*Mapper{NewMSCToWikipedia(), NewWikipediaToMSC()} {
		if err := r.Register(m); err != nil {
			t.Fatal(err)
		}
	}
	// A Wikipedia-classified entry translated into MSC lands in the right
	// area for steering against MSC source classes.
	got := r.Translate(SchemeWikipediaCategory, []string{"Graph theory", "Combinatorics"}, SchemeMSC)
	if !reflect.DeepEqual(got, []string{"05"}) {
		t.Fatalf("translate wikipedia→msc = %v, want [05]", got)
	}
	// And back: an MSC class reaches the categories of its area.
	got = r.Translate(SchemeMSC, []string{"05C40"}, SchemeWikipediaCategory)
	if !reflect.DeepEqual(got, []string{"Combinatorics", "Graph theory"}) {
		t.Fatalf("translate msc→wikipedia = %v", got)
	}
	// Identity translation passes through untouched.
	got = r.Translate(SchemeMSC, []string{"05C40"}, SchemeMSC)
	if !reflect.DeepEqual(got, []string{"05C40"}) {
		t.Fatalf("identity translate = %v", got)
	}
}
