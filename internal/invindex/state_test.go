package invindex

import (
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"nnexus/internal/morph"
)

// FuzzIndexRoundTrip runs an op sequence of FuzzIndexEquivalence's kind and,
// halfway, saves the index and reads it back twice: as the process that
// wrote the file reads it (every word keeps its ID), and under a scrambled
// word-ID map, as a process whose vocabulary numbers the words otherwise
// would. Each copy must answer like the reference for every label seen, and
// the first then runs the rest of the sequence in the original's place. Every
// truncation of the file, and every single flipped byte, is refused.
func FuzzIndexRoundTrip(f *testing.F) {
	for _, s := range indexSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		runIndexOps(t, data, func(ix *Index, ref *refIndex, probes []string) *Index {
			return roundTrip(t, ix, ref, probes, int64(len(data)))
		})
	})
}

// TestIndexRoundTrip is the fuzz target's body on its seeds and on thirty
// random op sequences.
func TestIndexRoundTrip(t *testing.T) {
	for _, s := range indexSeeds {
		runIndexOps(t, s, func(ix *Index, ref *refIndex, probes []string) *Index {
			return roundTrip(t, ix, ref, probes, 1)
		})
	}
	for seed := int64(0); seed < 30; seed++ {
		data := make([]byte, 600)
		rand.New(rand.NewSource(seed)).Read(data)
		runIndexOps(t, data, func(ix *Index, ref *refIndex, probes []string) *Index {
			return roundTrip(t, ix, ref, probes, seed)
		})
	}
}

func roundTrip(t *testing.T, ix *Index, ref *refIndex, probes []string, seed int64) *Index {
	t.Helper()
	stamp := []byte("head and epoch")
	file := AppendFile(nil, stamp, []string{"a", ""}, []*Index{ix, New()})
	opts := []Option{WithAutoCompact(ix.autoEvery, ix.autoBelow)}
	read, err := LoadFile(file, stamp, opts...)
	if err != nil || len(read) != 2 || read[""].Stats().Postings != 0 || read[""].Stats().Objects != 0 {
		t.Fatalf("LoadFile = %v, %v", read, err)
	}
	sameAnswers(t, "read back", read["a"], ref, probes)
	if _, err := LoadFile(file, []byte("another position"), opts...); !errors.Is(err, errStale) {
		t.Fatalf("LoadFile at another stamp = %v, want errStale", err)
	}

	// Every word the vocabulary holds numbered anew, a permutation.
	perm := rand.New(rand.NewSource(seed)).Perm(morph.Words())
	scramble := func(w int32) int32 { return int32(perm[w-1] + 1) }
	scrambled, err := loadFile(file, stamp, func(key string, form bool) int32 {
		if form {
			_, id := morph.Intern(key)
			return scramble(id)
		}
		return scramble(morph.InternWord(key))
	}, opts)
	if err != nil {
		t.Fatalf("loadFile under a scrambled map: %v", err)
	}
	sameScrambled(t, scrambled["a"], ref, probes, scramble)
	// Its texts are under the map too: removing every object withdraws every
	// posting.
	for object := range scrambled["a"].docs {
		scrambled["a"].Remove(object)
	}
	if st := scrambled["a"].Stats(); st.Postings != 0 || st.Objects != 0 {
		t.Fatalf("scrambled: %d postings of %d objects left after removing every object", st.Postings, st.Objects)
	}

	for n := range file {
		if _, err := LoadFile(file[:n], stamp, opts...); err == nil {
			t.Fatalf("a file truncated to %d of %d bytes was read", n, len(file))
		}
	}
	for i := range file {
		file[i] ^= byte(1 + i%255)
		if _, err := LoadFile(file, stamp, opts...); err == nil {
			t.Fatalf("a file with byte %d of %d flipped was read", i, len(file))
		}
		file[i] ^= byte(1 + i%255)
	}
	return read["a"]
}

// sameScrambled is sameAnswers for an index whose word IDs are scramble's
// image of the vocabulary's: each probe's words go through scramble first.
func sameScrambled(t *testing.T, ix *Index, ref *refIndex, probes []string, scramble func(int32) int32) {
	t.Helper()
	got, want := ix.Stats(), ref.Stats()
	got.Bytes = 0
	if got != want || ix.Keys() != ref.Keys() {
		t.Fatalf("scrambled: Stats = %+v, Keys %d, reference %+v, %d", got, ix.Keys(), want, ref.Keys())
	}
	for _, p := range probes {
		words := labelWords(p)
		for i, w := range words {
			if w != 0 {
				words[i] = scramble(w)
			}
		}
		for _, c := range []struct {
			what      string
			got, want any
		}{
			{"Lookup", ix.lookup(words), ref.Lookup(p)},
			{"LookupWordUnion", ix.wordUnion(words), ref.LookupWordUnion(p)},
			{"Contains", ix.contains(words), ref.Contains(p)},
		} {
			if !reflect.DeepEqual(c.got, c.want) {
				t.Fatalf("scrambled: %s(%q) = %v, reference %v", c.what, p, c.got, c.want)
			}
		}
	}
}

// TestLoadFileRefusesOtherVersions reads a file whose version is not the
// one this package writes, its checksum made good: refused by name.
func TestLoadFileRefusesOtherVersions(t *testing.T) {
	ix := New()
	ix.AddText(1, "the conjugacy class formula")
	file := AppendFile(nil, nil, []string{"a"}, []*Index{ix})
	body := file[:len(file)-4]
	le.PutUint32(body, fileVersion+1)
	file = le.AppendUint32(body, crc32.ChecksumIEEE(body))
	_, err := LoadFile(file, nil)
	if want := fmt.Sprintf("version %#x", fileVersion+1); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("LoadFile of another version = %v, want an error naming %s", err, want)
	}
}
