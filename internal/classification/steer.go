package classification

import "sort"

// Candidate is one potential link target considered by the steering
// algorithm: an object (by engine-wide ID) with its list of classes.
type Candidate struct {
	Object  int64
	Classes []string
}

// Steered is a candidate annotated with its minimum class distance to the
// link source.
type Steered struct {
	Candidate
	Distance int64
}

// Steer implements Algorithm 1 of the paper: it returns the candidate
// target objects that are closest in classification to the link source.
// For every candidate, the distance is the minimum over all (source class,
// target class) pairs; the candidates attaining the overall minimum are
// returned, ordered by object ID for determinism.
//
// Degenerate cases follow the deployed Noosphere behaviour: if the source
// has no classes, or no candidate has a known class, steering cannot
// discriminate and all candidates are returned (distance Infinite).
//
// The engine's resolve stage runs the same selection in place over its own
// candidate scratch and on class indexes (core's linkRun.steer, with
// MinDistanceIndex); Steer is the algorithm as the paper states it and the
// reference that selection is tested against.
func Steer(s *Scheme, sourceClasses []string, candidates []Candidate) []Steered {
	if len(candidates) == 0 {
		return nil
	}
	out := make([]Steered, 0, len(candidates))
	best := Infinite
	for _, c := range candidates {
		d := MinDistance(s, sourceClasses, c.Classes)
		out = append(out, Steered{Candidate: c, Distance: d})
		if d < best {
			best = d
		}
	}
	filtered := out[:0]
	for _, sc := range out {
		if sc.Distance == best {
			filtered = append(filtered, sc)
		}
	}
	sort.Slice(filtered, func(i, j int) bool { return filtered[i].Object < filtered[j].Object })
	return filtered
}

// MinDistance returns the minimum scheme distance over all pairs of source
// and target classes ("when there are multiple classes associated with the
// link source or link target, the minimum distance of all possible pairs of
// classes is used"). If either side has no resolvable class the result is
// Infinite.
func MinDistance(s *Scheme, source, target []string) int64 {
	best := Infinite
	for _, a := range source {
		for _, b := range target {
			if d, ok := s.Distance(a, b); ok && d < best {
				best = d
			}
		}
	}
	return best
}

// MinDistanceIndex is MinDistance over classes already resolved to node
// indexes (Scheme.AppendIndexes): one walk to the lowest common ancestor per
// pair, at most the scheme's height steps up from each class, and no map
// lookup. It equals MinDistance of the class ids the indexes were resolved
// from. The scheme must be built.
func MinDistanceIndex(s *Scheme, source, target []int32) int64 {
	best := Infinite
	for _, a := range source {
		for _, b := range target {
			best = min(best, s.dist(a, b))
		}
	}
	return best
}
