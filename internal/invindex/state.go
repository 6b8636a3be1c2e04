package invindex

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/bits"
	"slices"
	"unsafe"

	"nnexus/internal/morph"
)

// The file AppendFile writes holds indexes in their in-memory layout, so that
// a reopen reads them instead of tokenizing every stored text again:
//
//	version | stamp | count | (name | index)... | crc32 of all before it
//
// Little-endian; a count, a length and the version are four bytes, and a
// string or a slice is its length, then its elements. An index is its phrase
// bound, its roots, the words it holds and the surface forms that map to them
// (as text: a word ID never leaves the process), the edges, the nodes, the
// phrase bitmap, the lists, the free slots, the texts and the counters.
const (
	fileVersion = 0x4e4e5801 // "NNX" and the layout's number
	formBit     = 1 << 31    // on a key's length: a surface form, not a word
)

var le = binary.LittleEndian

// errStale refuses a file saved at another position than the one asked for.
var errStale = errors.New("invindex: index file is stale")

var errCorrupt = errors.New("invindex: index file is corrupt")

// AppendFile appends to dst a file holding each index under its name,
// stamped with stamp: the position of what the indexes were built from,
// which LoadFile asks for again.
func AppendFile(dst, stamp []byte, names []string, indexes []*Index) []byte {
	start := len(dst)
	dst = putBytes(le.AppendUint32(dst, fileVersion), stamp)
	dst = le.AppendUint32(dst, uint32(len(indexes)))
	for i, ix := range indexes {
		dst = ix.appendState(putBytes(dst, names[i]))
	}
	return le.AppendUint32(dst, crc32.ChecksumIEEE(dst[start:]))
}

func (ix *Index) appendState(dst []byte) []byte {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	// The words, each of which holds a root child, then their forms.
	var heads []uint32
	var text []byte
	key := func(w int32, s string, form uint32) {
		heads, text = append(heads, uint32(w), form|uint32(len(s))), append(text, s...)
	}
	for w, child := range ix.roots {
		if child != 0 {
			key(int32(w), morph.Word(int32(w)), 0)
		}
	}
	morph.Forms(func(form string, w int32) {
		if int(w) < len(ix.roots) && ix.roots[w] != 0 {
			key(w, form, formBit)
		}
	})
	nodes, objects := (len(ix.pages)-1)*pageSize+len(ix.pages[len(ix.pages)-1]), make([]int64, 0, len(ix.docs))
	size := 64 + 4*len(heads) + len(text) + 4*len(ix.roots) + 12*ix.edges.n + 20*nodes +
		8*len(ix.long) + 4*len(ix.free) + 12*len(ix.docs)
	for object, seq := range ix.docs {
		objects, size = append(objects, object), size+4*len(seq)
	}
	for _, ids := range ix.lists {
		size += 4 + 8*len(ids)
	}
	dst = putInts(le.AppendUint32(slices.Grow(dst, size), uint32(ix.maxPhraseLen)), ix.roots)
	dst = le.AppendUint32(putBytes(putInts(dst, heads), text), uint32(ix.edges.n))
	for i, k := range ix.edges.keys {
		if k != 0 {
			dst = le.AppendUint32(le.AppendUint64(dst, k), uint32(ix.edges.children[i]))
		}
	}
	dst = le.AppendUint32(dst, uint32(nodes))
	for _, page := range ix.pages {
		for i := range page {
			nd := &page[i]
			dst = le.AppendUint32(le.AppendUint32(dst, uint32(nd.count)), uint32(nd.slot))
			dst = le.AppendUint32(le.AppendUint32(le.AppendUint32(dst, uint32(nd.more[0])), uint32(nd.more[1])), uint32(nd.more[2]))
		}
	}
	dst = le.AppendUint32(putInts(dst, ix.long), uint32(len(ix.lists)))
	for _, ids := range ix.lists {
		dst = putInts(dst, ids)
	}
	dst = putInts(putInts(dst, ix.free), objects)
	for _, object := range objects {
		dst = putInts(dst, ix.docs[object])
	}
	return putInts(dst, []int64{int64(ix.keys), int64(ix.tombstones), int64(ix.adds)})
}

func putBytes[S ~string | ~[]byte](dst []byte, s S) []byte {
	return append(le.AppendUint32(dst, uint32(len(s))), s...)
}

// integer is what putInts and getInts write and read: four bytes or eight.
type integer interface {
	~int32 | ~uint32 | ~int64 | ~uint64
}

func width[T integer]() int { return int(unsafe.Sizeof(T(0))) }

func putInts[T integer](dst []byte, s []T) []byte {
	dst = le.AppendUint32(dst, uint32(len(s)))
	wide := width[T]() == 8
	for _, v := range s {
		if wide {
			dst = le.AppendUint64(dst, uint64(v))
		} else {
			dst = le.AppendUint32(dst, uint32(v))
		}
	}
	return dst
}

// LoadFile returns the indexes of a file AppendFile wrote, by name, each made
// with opts. It refuses a file whose checksum, version or stamp is not what
// it expects. It interns the words and forms the file holds in the process's
// vocabulary, and puts each index under the IDs the vocabulary gives them.
func LoadFile(src, stamp []byte, opts ...Option) (map[string]*Index, error) {
	return loadFile(src, stamp, func(key string, form bool) int32 {
		if form {
			_, id := morph.Intern(key)
			return id
		}
		return morph.InternWord(key)
	}, opts)
}

func loadFile(src, stamp []byte, intern func(key string, form bool) int32, opts []Option) (indexes map[string]*Index, err error) {
	if len(src) < 8 || crc32.ChecksumIEEE(src[:len(src)-4]) != le.Uint32(src[len(src)-4:]) {
		return nil, errors.New("invindex: index file checksum mismatch")
	}
	// A field the rest of the file cannot hold is a slice out of range.
	defer func() {
		if p := recover(); p != nil {
			indexes, err = nil, fmt.Errorf("%w: %v", errCorrupt, p)
		}
	}()
	r := reader(src[:len(src)-4])
	if v := r.u32(); v != fileVersion {
		return nil, fmt.Errorf("invindex: index file version %#x, want %#x", v, fileVersion)
	}
	if !bytes.Equal(r.bytes(), stamp) {
		return nil, errStale
	}
	n := r.count(4)
	indexes = make(map[string]*Index, n)
	for ; n > 0; n-- {
		name, ix := string(r.bytes()), New(opts...)
		r.index(ix, intern)
		indexes[name] = ix
	}
	if len(r) != 0 {
		return nil, errCorrupt
	}
	return indexes, nil
}

// reader reads a file's fields in turn, and panics at one the rest of the
// file cannot hold.
type reader []byte

func (r *reader) take(n int) []byte {
	p := (*r)[:n:n]
	*r = (*r)[n:]
	return p
}

func (r *reader) u32() uint32 { return le.Uint32(r.take(4)) }

// count reads the length of a run of items of at least size bytes each,
// refusing one longer than the rest of the file could hold.
func (r *reader) count(size int) int {
	n := int(r.u32())
	if n > len(*r)/size {
		panic(errCorrupt)
	}
	return n
}

func (r *reader) bytes() []byte { return r.take(r.count(1)) }

// getInts reads a slice into one of exactly its length.
func getInts[T integer](r *reader) []T {
	w := width[T]()
	p := r.take(w * r.count(w))
	if len(p) == 0 {
		return nil
	}
	s := make([]T, len(p)/w)
	for i := range s {
		if w == 4 {
			s[i] = T(le.Uint32(p[4*i:]))
		} else {
			s[i] = T(le.Uint64(p[8*i:]))
		}
	}
	return s
}

// index reads one index into ix, which New made: its words and forms are
// interned with intern, and every word ID it holds is put under the ID that
// gives its word. In the process that wrote the file the two are the same.
func (r *reader) index(ix *Index, intern func(key string, form bool) int32) {
	ix.maxPhraseLen = int(r.u32())
	roots, heads := getInts[int32](r), getInts[uint32](r)
	text := string(r.bytes()) // every key a window of it
	ids := make(wordIDs, len(roots))
	for ; len(heads) > 1; heads = heads[2:] {
		w, n, form := heads[0], heads[1]&^formBit, heads[1]&formBit != 0
		if id := intern(text[:n], form); !form {
			ids[w] = id
		} else if id != ids[w] {
			panic("a form this process normalizes to another word")
		}
		text = text[n:]
	}
	ix.roots = make([]int32, max(len(roots), 1+int(slices.Max(append(ids, 0)))))
	for w, child := range roots {
		if child != 0 {
			ix.roots[ids[w]] = child // at 0 if the file lacks the word
		}
	}
	// The edges, rehashed under the words' IDs into a table of the size the
	// writer's had: it grew by the same rule.
	edges := r.count(12)
	if size := 64; edges > 0 {
		for edges*8 > size*7 {
			size *= 2
		}
		ix.edges = edgeTable{keys: make([]uint64, size), children: make([]int32, size), shift: uint(64 - bits.TrailingZeros(uint(size)))}
	}
	for p := r.take(12 * edges); len(p) > 0; p = p[12:] {
		k := le.Uint64(p)
		ix.edges.put(edgeKey(int32(k>>32), ids.of(int32(uint32(k)))), int32(le.Uint32(p[8:])))
	}
	nodes := r.count(20)
	p := r.take(20 * nodes)
	ix.pages = make([][]node, 0, (nodes+pageSize-1)/pageSize)
	for len(p) > 0 {
		page := make([]node, min(pageSize, len(p)/20))
		for i := range page {
			q := p[20*i : 20*i+20]
			page[i] = node{count: int32(le.Uint32(q)), slot: int32(le.Uint32(q[4:])),
				more: [runMore]int32{ids.of(int32(le.Uint32(q[8:]))), ids.of(int32(le.Uint32(q[12:]))), ids.of(int32(le.Uint32(q[16:])))}}
		}
		ix.pages, p = append(ix.pages, page), p[20*len(page):]
	}
	ix.long = getInts[uint64](r)
	ix.lists = make([][]int64, r.count(4))
	for i := range ix.lists {
		ix.lists[i] = getInts[int64](r)
	}
	ix.free = getInts[int32](r)
	objects := getInts[int64](r)
	ix.docs = make(map[int64][]int32, len(objects))
	for _, object := range objects {
		seq := getInts[int32](r)
		for i, w := range seq {
			seq[i] = ids.of(w)
		}
		ix.docs[object] = seq
	}
	counters := getInts[int64](r)[:3]
	ix.keys, ix.tombstones, ix.adds = int(counters[0]), int(counters[1]), int(counters[2])
	if len(text) != 0 || nodes == 0 || ix.roots[0] != 0 {
		panic(errCorrupt)
	}
}

// wordIDs maps the word IDs of a file to a process's.
type wordIDs []int32

// of is w's ID, 0 for a word the file does not hold.
func (m wordIDs) of(w int32) int32 {
	if uint32(w) < uint32(len(m)) {
		return m[w]
	}
	return 0
}
