package classification

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
