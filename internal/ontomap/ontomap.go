// Package ontomap implements the classification-mapping layer NNexus needs
// to interlink multiple corpora (paper §2.3: "different knowledge bases may
// not use the same classification hierarchy. To address the general problem
// of interlinking multiple corpora, it is necessary to consider mapping ...
// multiple, differing classification ontologies").
//
// A Mapper translates class identifiers of one scheme into identifiers of
// another (possibly one-to-many, as coarse foreign categories often span
// several target classes). A Registry holds the mappers of a deployment and
// translates every entry's classes into the engine's canonical scheme, so
// classification steering always compares distances within a single graph
// (the "classification-invariant link steering between multiple ontologies"
// of the paper's Fig 7).
package ontomap

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Mapper translates classes of scheme From into classes of scheme To.
type Mapper struct {
	From string
	To   string

	mu    sync.RWMutex
	rules map[string][]string
}

// NewMapper creates an empty mapper between two named schemes.
func NewMapper(from, to string) *Mapper {
	return &Mapper{From: from, To: to, rules: make(map[string][]string)}
}

// Add installs a translation rule. Adding a rule for an existing source
// class replaces it. Rules ending in "*" act as prefix rules:
// "QA*" matches any class beginning with "QA" and is consulted only when no
// exact rule matches (longest prefix wins).
func (m *Mapper) Add(fromClass string, toClasses ...string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.rules[fromClass] = append([]string(nil), toClasses...)
}

// Map translates one class. Exact rules win over prefix rules; among prefix
// rules the longest prefix wins. Unmapped classes return (nil, false).
func (m *Mapper) Map(class string) ([]string, bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if out, ok := m.rules[class]; ok {
		return append([]string(nil), out...), true
	}
	bestLen := -1
	var best []string
	for pattern, out := range m.rules {
		if !strings.HasSuffix(pattern, "*") {
			continue
		}
		prefix := pattern[:len(pattern)-1]
		if strings.HasPrefix(class, prefix) && len(prefix) > bestLen {
			bestLen = len(prefix)
			best = out
		}
	}
	if bestLen < 0 {
		return nil, false
	}
	return append([]string(nil), best...), true
}

// Validate reports a mapper no registry accepts: one that does not name both
// schemes, maps a scheme to itself, or holds a rule with no source class or
// no target class.
func (m *Mapper) Validate() error {
	if m.From == "" || m.To == "" {
		return fmt.Errorf("ontomap: mapper must name both schemes")
	}
	if m.From == m.To {
		return fmt.Errorf("ontomap: mapper from a scheme to itself is implicit")
	}
	m.mu.RLock()
	defer m.mu.RUnlock()
	for from, to := range m.rules {
		if from == "" || len(to) == 0 {
			return fmt.Errorf("ontomap: mapper %s→%s has an incomplete rule", m.From, m.To)
		}
	}
	return nil
}

// Len returns the number of installed rules.
func (m *Mapper) Len() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.rules)
}

// Registry holds the mappers of a deployment, keyed by (from, to).
type Registry struct {
	mu      sync.RWMutex
	mappers map[string]*Mapper
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{mappers: make(map[string]*Mapper)}
}

func key(from, to string) string { return from + "\x00" + to }

// Register installs a mapper, replacing any previous mapper for the same
// scheme pair.
func (r *Registry) Register(m *Mapper) error {
	if err := m.Validate(); err != nil {
		return err
	}
	r.mu.Lock()
	r.mappers[key(m.From, m.To)] = m
	r.mu.Unlock()
	return nil
}

// Mapper returns the registered mapper for the pair, or nil.
func (r *Registry) Mapper(from, to string) *Mapper {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.mappers[key(from, to)]
}

// Translate converts a class list from one scheme into another. Identity
// translations pass through unchanged. With a registered mapper, mapped
// classes are merged and deduplicated; classes with no rule are dropped
// (they cannot participate in distance computations of the target scheme).
// Without a mapper, nil is returned: steering then treats the entry as
// unclassified rather than comparing apples to oranges.
func (r *Registry) Translate(fromScheme string, classes []string, toScheme string) []string {
	if fromScheme == toScheme {
		return append([]string(nil), classes...)
	}
	m := r.Mapper(fromScheme, toScheme)
	if m == nil {
		return nil
	}
	set := make(map[string]struct{})
	for _, c := range classes {
		if mapped, ok := m.Map(c); ok {
			for _, t := range mapped {
				set[t] = struct{}{}
			}
		}
	}
	if len(set) == 0 {
		return nil
	}
	out := make([]string, 0, len(set))
	for c := range set {
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}
