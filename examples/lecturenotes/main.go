// Lecture notes: reproduce the paper's Fig 9 — automatically linking a
// professor's probability lecture notes against two math encyclopedias
// (PlanetMath and MathWorld), with concepts imported from MathWorld via an
// OAI-style metadata dump and a collection priority deciding which site
// wins when both define a concept.
//
// Run with: go run ./examples/lecturenotes
package main

import (
	"fmt"
	"log"
	"strings"

	"nnexus"
)

// mathworldOAI is the metadata dump "imported from MathWorld using that
// site's OAI repository" (paper Fig 9 caption), trimmed to the concepts the
// notes use.
const mathworldOAI = `<?xml version="1.0"?>
<records domain="mathworld.wolfram.com" scheme="msc">
  <record id="RandomVariable"><title>random variable</title><class>11Axx</class></record>
  <record id="Variance"><title>variance</title><class>11Axx</class></record>
  <record id="StandardDeviation"><title>standard deviation</title><class>11Axx</class></record>
  <record id="Independence"><title>independent</title><concept>independence</concept><class>03Exx</class></record>
  <record id="CentralLimitTheorem"><title>central limit theorem</title><class>11Axx</class></record>
</records>`

const planetmathOAI = `<?xml version="1.0"?>
<records domain="planetmath.org" scheme="msc">
  <record id="4887"><title>random variable</title><class>11Axx</class></record>
  <record id="2455"><title>probability space</title><concept>sample space</concept><class>11Axx</class></record>
  <record id="2513"><title>expectation</title><concept>expected value</concept><concept>mean</concept><class>11Axx</class>
    <policy>forbid mean
allow mean from 11-XX</policy></record>
  <record id="3312"><title>convergence in distribution</title><class>11Axx</class></record>
</records>`

// notes are the "original lecture notes" of Fig 9a.
const notes = `Lecture 7: sums of independent random variables.

Recall that a random variable is a measurable function on a probability
space. The expected value is linear; the variance of a sum of independent
random variables is the sum of their variances, so the standard deviation
scales like $\sqrt{n}$. By the central limit theorem, the normalized sum
exhibits convergence in distribution to a Gaussian. This does not mean the
terms themselves converge.`

func main() {
	engine, err := nnexus.New(nnexus.Config{
		Scheme: nnexus.SampleMSC(nnexus.DefaultBaseWeight),
		Format: nnexus.Markdown, // notes are plain text, link as Markdown
		// PlanetMath wins ties: it has the lower collection priority value.
		Domains: []nnexus.Domain{
			{Name: "planetmath.org", URLTemplate: "http://planetmath.org/?op=getobj&id={id}", Scheme: "msc", Priority: 1},
			{Name: "mathworld.wolfram.com", URLTemplate: "http://mathworld.wolfram.com/{id}.html", Scheme: "msc", Priority: 2},
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer engine.Close()
	if _, err := engine.ImportOAI(strings.NewReader(planetmathOAI)); err != nil {
		log.Fatal(err)
	}
	if _, err := engine.ImportOAI(strings.NewReader(mathworldOAI)); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("imported %d entries (%d concepts) from %s\n\n",
		engine.NumEntries(), engine.NumConcepts(),
		strings.Join(engine.Domains(), " and "))

	fmt.Println("--- original notes (Fig 9a) ---")
	fmt.Println(notes)

	res, err := engine.LinkText(notes, nnexus.LinkOptions{SourceClasses: []string{"11Axx"}})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\n--- automatically linked notes (Fig 9b) ---")
	fmt.Println(res.Output)

	fmt.Println("\n--- link table ---")
	for _, l := range res.Links {
		fmt.Printf("%-26q → %-24s %s\n", l.Text, l.TargetDomain, l.URL)
	}
	fmt.Println("\nnote: \"random variable\" resolves to PlanetMath even though both")
	fmt.Println("sites define it — the collection priority configuration decided.")
	if len(res.Skips) > 0 {
		fmt.Println("\nsuppressed matches:")
		for _, s := range res.Skips {
			fmt.Printf("  %q (%s)\n", s.Label, s.Reason)
		}
	}
}
