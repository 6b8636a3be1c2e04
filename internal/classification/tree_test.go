package classification

import (
	"fmt"
	"math/big"
	"math/rand"
	"runtime"
	"strings"
	"testing"
)

// chain builds the scheme "chain": one class per level, c1 under the root
// down to c<height>.
func chain(height, base int) (*Scheme, error) {
	s := NewScheme("chain", base)
	parent := ""
	for i := 1; i <= height; i++ {
		id := fmt.Sprintf("c%d", i)
		if err := s.AddClass(id, id, parent); err != nil {
			return nil, err
		}
		parent = id
	}
	return s, s.Build()
}

// TestBuildRefusesOverflowingWeights: a chain builds while its largest
// distance, 2·W of its deepest class, stays below Infinite, and then matches
// Johnson's on every pair: at base 10 up to height 19 (2·(10^19−1)/9), and
// at base 2 up to height 61 (2^62−2, one below Infinite). One level deeper,
// Build refuses naming the scheme, its height and its base; so does a
// height-3 chain at base 4,000,000,000 (the sample scheme's shape at
// nnexusd -base 4000000000). Base 1 builds at any height.
func TestBuildRefusesOverflowingWeights(t *testing.T) {
	for _, c := range []struct{ height, base int }{{19, 10}, {61, 2}} {
		s, err := chain(c.height, c.base)
		if err != nil {
			t.Fatalf("height %d base %d: %v", c.height, c.base, err)
		}
		requireJohnson(t, s)
	}
	for _, c := range []struct{ height, base int }{{20, 10}, {62, 2}, {3, 4_000_000_000}} {
		_, err := chain(c.height, c.base)
		want := fmt.Sprintf(`scheme "chain" of height %d at base %d`, c.height, c.base)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("height %d base %d: Build error %v, want one naming %s", c.height, c.base, err, want)
		}
	}
	s, err := chain(1000, 1)
	if err != nil {
		t.Fatal(err)
	}
	if d, ok := s.Distance("c1", "c1000"); !ok || d != 999 {
		t.Errorf("base 1: d(c1,c1000) = %d,%v, want 999", d, ok)
	}
}

// shapeOf encodes a scheme's tree as FuzzTreeDistance reads it: byte i is
// the node index of class i+1's parent.
func shapeOf(s *Scheme) []byte {
	out := make([]byte, s.Len())
	for _, id := range s.Classes() {
		i, _ := s.Index(id)
		p, _ := s.Index(s.Parent(id))
		out[i-1] = byte(p)
	}
	return out
}

// FuzzTreeDistance draws a tree of 1–200 classes (class i's parent is node
// parents[i-1] mod i, node 0 the root) at a base of 1–12 and requires the
// tree walk to equal Johnson's on every pair, the root included, and
// MinDistanceIndex and MinDistance to equal the reference's minimum over
// random class lists holding the root's empty id, unknown ids and
// duplicates. A tree Build refuses must be one whose largest distance,
// computed without overflow, reaches Infinite.
func FuzzTreeDistance(f *testing.F) {
	for i, s := range []*Scheme{SampleMSC(10), SampleMSC(1), MSC2000(10)} {
		f.Add(shapeOf(s), uint8(s.BaseWeight()-1), int64(i))
	}
	deepest, err := chain(19, 10) // the deepest chain that builds at base 10
	if err != nil {
		f.Fatal(err)
	}
	f.Add(shapeOf(deepest), uint8(9), int64(3))
	f.Fuzz(func(t *testing.T, parents []byte, base uint8, seed int64) {
		n := min(max(len(parents), 1), 200)
		b := 1 + int(base%12)
		s := NewScheme("fuzz", b)
		ids := []string{""}
		for i := 1; i <= n; i++ {
			p := 0
			if i <= len(parents) {
				p = int(parents[i-1]) % i
			}
			ids = append(ids, fmt.Sprintf("c%d", i))
			if err := s.AddClass(ids[i], "", ids[p]); err != nil {
				t.Fatal(err)
			}
		}
		// 2·W of the deepest class: 2·(b^0 + … + b^(height−1)).
		largest, pow := new(big.Int), big.NewInt(1)
		for d := 0; d < s.Height(); d++ {
			largest.Add(largest, pow)
			pow.Mul(pow, big.NewInt(int64(b)))
		}
		overflows := largest.Lsh(largest, 1).Cmp(big.NewInt(Infinite)) >= 0
		if err := s.Build(); (err != nil) != overflows {
			t.Fatalf("height %d base %d: Build error %v, largest distance reaches Infinite: %v", s.Height(), b, err, overflows)
		} else if err != nil {
			return
		}
		ref := johnson(t, s)
		for a := range ids {
			for c := range ids {
				if d := s.dist(int32(a), int32(c)); d != ref[a][c] {
					t.Fatalf("base %d: dist(%d,%d) = %d, johnson = %d", b, a, c, d, ref[a][c])
				}
			}
		}
		ids = append(ids, "bogus")
		rng := rand.New(rand.NewSource(seed))
		pick := func() []string {
			out := make([]string, rng.Intn(5))
			for i := range out {
				out[i] = ids[rng.Intn(len(ids))]
			}
			return out
		}
		for i := 0; i < 64; i++ {
			src, dst := pick(), pick()
			want := Infinite
			for _, a := range s.AppendIndexes(nil, src) {
				for _, c := range s.AppendIndexes(nil, dst) {
					want = min(want, ref[a][c])
				}
			}
			if got := MinDistanceIndex(s, s.AppendIndexes(nil, src), s.AppendIndexes(nil, dst)); got != want {
				t.Fatalf("MinDistanceIndex(%q, %q) = %d, johnson = %d", src, dst, got, want)
			}
			if got := MinDistance(s, src, dst); got != want {
				t.Fatalf("MinDistance(%q, %q) = %d, johnson = %d", src, dst, got, want)
			}
		}
	})
}

// steeringFixture is a full-MSC-sized scheme of height 3 (63 areas, 8
// sections each, 9 leaves each: 5,103 classes), every class's node index,
// and a fixed list of 16 target classes spread over the areas.
func steeringFixture(tb testing.TB) (s *Scheme, sources, targets []int32) {
	s = NewScheme("msc", DefaultBaseWeight)
	add := func(id, parent string) {
		if err := s.AddClass(id, id, parent); err != nil {
			tb.Fatal(err)
		}
	}
	for a := 0; a < 63; a++ {
		area := fmt.Sprintf("%02d-XX", a)
		add(area, "")
		for m := 0; m < 8; m++ {
			mid := fmt.Sprintf("%02d%cxx", a, 'A'+m)
			add(mid, area)
			for l := 0; l < 9; l++ {
				add(fmt.Sprintf("%02d%c%02d", a, 'A'+m, l), mid)
			}
		}
	}
	if err := s.Build(); err != nil {
		tb.Fatal(err)
	}
	sources = s.AppendIndexes(nil, s.Classes())
	for i := 0; i < 16; i++ {
		targets = append(targets, sources[i*len(sources)/16])
	}
	return s, sources, targets
}

// TestSteeringMemoryIsLinear: steering once from every class of a
// 5,103-class scheme leaves the live heap less than 1 MB larger. A distance
// row memoised per source class would hold N²×8 bytes, about 208 MB here.
func TestSteeringMemoryIsLinear(t *testing.T) {
	s, sources, targets := steeringFixture(t)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	var sum int64
	for i := range sources {
		sum += MinDistanceIndex(s, sources[i:i+1], targets)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(s)
	if sum <= 0 {
		t.Fatalf("distance sum %d", sum)
	}
	if grew := int64(after.HeapAlloc) - int64(before.HeapAlloc); grew >= 1<<20 {
		t.Fatalf("steering from %d classes grew the live heap by %.1f MB, want < 1 MB", len(sources), float64(grew)/(1<<20))
	}
}

func BenchmarkMinDistanceIndex(b *testing.B) {
	s, sources, targets := steeringFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i % len(sources)
		MinDistanceIndex(s, sources[j:j+1], targets)
	}
}
