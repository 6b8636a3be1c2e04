package classification

// msc2000TopLevel lists the top-level areas of the Mathematics Subject
// Classification (MSC 2000), the scheme PlanetMath classifies entries by.
var msc2000TopLevel = []struct{ id, name string }{
	{"00-XX", "General"},
	{"01-XX", "History and biography"},
	{"03-XX", "Mathematical logic and foundations"},
	{"05-XX", "Combinatorics"},
	{"06-XX", "Order, lattices, ordered algebraic structures"},
	{"08-XX", "General algebraic systems"},
	{"11-XX", "Number theory"},
	{"12-XX", "Field theory and polynomials"},
	{"13-XX", "Commutative rings and algebras"},
	{"14-XX", "Algebraic geometry"},
	{"15-XX", "Linear and multilinear algebra; matrix theory"},
	{"16-XX", "Associative rings and algebras"},
	{"17-XX", "Nonassociative rings and algebras"},
	{"18-XX", "Category theory; homological algebra"},
	{"19-XX", "K-theory"},
	{"20-XX", "Group theory and generalizations"},
	{"22-XX", "Topological groups, Lie groups"},
	{"26-XX", "Real functions"},
	{"28-XX", "Measure and integration"},
	{"30-XX", "Functions of a complex variable"},
	{"31-XX", "Potential theory"},
	{"32-XX", "Several complex variables and analytic spaces"},
	{"33-XX", "Special functions"},
	{"34-XX", "Ordinary differential equations"},
	{"35-XX", "Partial differential equations"},
	{"37-XX", "Dynamical systems and ergodic theory"},
	{"39-XX", "Difference and functional equations"},
	{"40-XX", "Sequences, series, summability"},
	{"41-XX", "Approximations and expansions"},
	{"42-XX", "Fourier analysis"},
	{"43-XX", "Abstract harmonic analysis"},
	{"44-XX", "Integral transforms, operational calculus"},
	{"45-XX", "Integral equations"},
	{"46-XX", "Functional analysis"},
	{"47-XX", "Operator theory"},
	{"49-XX", "Calculus of variations and optimal control"},
	{"51-XX", "Geometry"},
	{"52-XX", "Convex and discrete geometry"},
	{"53-XX", "Differential geometry"},
	{"54-XX", "General topology"},
	{"55-XX", "Algebraic topology"},
	{"57-XX", "Manifolds and cell complexes"},
	{"58-XX", "Global analysis, analysis on manifolds"},
	{"60-XX", "Probability theory and stochastic processes"},
	{"62-XX", "Statistics"},
	{"65-XX", "Numerical analysis"},
	{"68-XX", "Computer science"},
	{"70-XX", "Mechanics of particles and systems"},
	{"74-XX", "Mechanics of deformable solids"},
	{"76-XX", "Fluid mechanics"},
	{"78-XX", "Optics, electromagnetic theory"},
	{"80-XX", "Classical thermodynamics, heat transfer"},
	{"81-XX", "Quantum theory"},
	{"82-XX", "Statistical mechanics, structure of matter"},
	{"83-XX", "Relativity and gravitational theory"},
	{"85-XX", "Astronomy and astrophysics"},
	{"86-XX", "Geophysics"},
	{"90-XX", "Operations research, mathematical programming"},
	{"91-XX", "Game theory, economics, social and behavioral sciences"},
	{"92-XX", "Biology and other natural sciences"},
	{"93-XX", "Systems theory; control"},
	{"94-XX", "Information and communication, circuits"},
	{"97-XX", "Mathematics education"},
}

// MSC2000 builds (and Builds) a scheme holding every top-level area of the
// real MSC 2000 classification, ready for deployments that attach their own
// second- and third-level classes (or use AddClass to grow specific
// subtrees). Height is 1, so distances degenerate to same-area/other-area —
// sufficient for coarse cross-corpus steering.
func MSC2000(baseWeight int) *Scheme {
	s := NewScheme("msc", baseWeight)
	for _, area := range msc2000TopLevel {
		if err := s.AddClass(area.id, area.name, ""); err != nil {
			panic("classification: MSC2000: " + err.Error())
		}
	}
	if err := s.Build(); err != nil {
		panic("classification: MSC2000: " + err.Error())
	}
	return s
}
