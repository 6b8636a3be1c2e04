package classification

import "testing"

func TestMSC2000Shape(t *testing.T) {
	s := MSC2000(10)
	if s.Len() != len(msc2000TopLevel) {
		t.Fatalf("len = %d, want %d", s.Len(), len(msc2000TopLevel))
	}
	if s.Height() != 1 {
		t.Errorf("height = %d", s.Height())
	}
	if !s.Has("05-XX") || !s.Has("97-XX") || s.Has("02-XX") {
		t.Error("area membership wrong")
	}
	if s.ClassName("68-XX") != "Computer science" {
		t.Errorf("name = %q", s.ClassName("68-XX"))
	}
	// Same area distance 0, cross-area positive and uniform.
	if d, _ := s.Distance("05-XX", "05-XX"); d != 0 {
		t.Errorf("self distance = %d", d)
	}
	d1, _ := s.Distance("05-XX", "11-XX")
	d2, _ := s.Distance("60-XX", "97-XX")
	if d1 != d2 || d1 <= 0 {
		t.Errorf("cross-area distances: %d vs %d", d1, d2)
	}
}

func TestMSC2000Growable(t *testing.T) {
	s := NewScheme("msc", 10)
	for _, area := range msc2000TopLevel {
		if err := s.AddClass(area.id, "", ""); err != nil {
			t.Fatal(err)
		}
	}
	// Attach a deeper subtree under combinatorics.
	if err := s.AddClass("05Cxx", "Graph theory", "05-XX"); err != nil {
		t.Fatal(err)
	}
	if err := s.AddClass("05C10", "Topological graph theory", "05Cxx"); err != nil {
		t.Fatal(err)
	}
	if err := s.Build(); err != nil {
		t.Fatal(err)
	}
	if s.Height() != 3 {
		t.Errorf("height = %d", s.Height())
	}
	if !s.IsDescendant("05C10", "05-XX") {
		t.Error("descendant check failed")
	}
}
