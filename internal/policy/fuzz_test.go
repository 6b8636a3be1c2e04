package policy

import (
	"testing"

	"nnexus/internal/classification"
)

// FuzzParse throws arbitrary directive text at the parser: it must either
// reject the input or produce a policy whose evaluation never panics.
func FuzzParse(f *testing.F) {
	for _, seed := range []string{
		"forbid even",
		"allow even from 11-XX",
		"forbid *\nallow * from 05Cxx, 05-XX",
		"# comment\n\npermit x",
		"forbid from from from",
		"allow  spaced   label   from   A , B",
	} {
		f.Add(seed)
	}
	scheme := classification.SampleMSC(10)
	f.Fuzz(func(t *testing.T, text string) {
		p, err := Parse(text)
		if err != nil {
			return
		}
		_ = p.Permits(scheme, []string{"05C40"}, label("even"))
		_ = p.Permits(scheme, nil, label("*"))
		_ = p.Permits(nil, []string{"05C40"}, label("anything"))
	})
}
