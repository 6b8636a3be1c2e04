package core

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"nnexus/internal/classification"
	"nnexus/internal/corpus"
	"nnexus/internal/morph"
	"nnexus/internal/storage"
	"nnexus/internal/tokenizer"
)

// openDisk opens the store in dir and an engine over it; the test closes
// both, the engine first.
func openDisk(t *testing.T, dir string) (*Engine, *storage.Store) {
	t.Helper()
	store, err := storage.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(Config{Scheme: classification.SampleMSC(10), Store: store})
	if err != nil {
		t.Fatal(err)
	}
	return e, store
}

func closeDisk(t *testing.T, e *Engine, store *storage.Store) {
	t.Helper()
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
}

// writeTwoCorpora fills an engine with the Fig 1 entries of both corpora,
// then updates (a body, a title, a move to the other corpus and back),
// removes and adds, so that the index holds postings its entries no longer
// have. It returns every label and body word it ever wrote, and each two
// consecutive body words.
func writeTwoCorpora(t *testing.T, e *Engine) []string {
	t.Helper()
	if err := e.AddDomain(corpus.Domain{Name: "planetmath.org", URLTemplate: "http://pm/{id}", Scheme: "msc", Priority: 1}); err != nil {
		t.Fatal(err)
	}
	var labels []string
	note := func(entry *corpus.Entry) {
		labels = append(labels, entry.Labels()...)
		words := strings.Fields(entry.Body)
		for i := range words {
			labels = append(labels, words[i], strings.Join(words[i:min(i+2, len(words))], " "))
		}
	}
	for i, entry := range fig1Entries() {
		entry.Domain, entry.Body = "planetmath.org", fig1Bodies[i%len(fig1Bodies)]
		if _, err := e.AddEntry(entry); err != nil {
			t.Fatal(err)
		}
		note(entry)
	}
	update := func(id int64, change func(*corpus.Entry)) {
		entry, _ := e.Entry(id)
		change(entry)
		if err := e.UpdateEntry(entry); err != nil {
			t.Fatal(err)
		}
		note(entry)
	}
	update(2, func(entry *corpus.Entry) { entry.Body = "every connected planar graph has a plane drawing" })
	update(5, func(entry *corpus.Entry) { entry.Title = "graph theory" })
	update(7, func(entry *corpus.Entry) { entry.Corpus = "wiki" })
	update(7, func(entry *corpus.Entry) { entry.Corpus = "default" })
	update(14, func(entry *corpus.Entry) { entry.Body = "a plane graph embeds an even function space" })
	for _, id := range []int64{3, 13} {
		if err := e.RemoveEntry(id); err != nil {
			t.Fatal(err)
		}
	}
	entry := &corpus.Entry{Corpus: "wiki", Domain: "planetmath.org", Title: "metric", Classes: []string{"05C99"},
		Body: "a metric space of connected components"}
	if _, err := e.AddEntry(entry); err != nil {
		t.Fatal(err)
	}
	note(entry)
	return labels
}

// lookups is every namespace's answer for every label.
func lookups(e *Engine, labels []string) map[string][][]int64 {
	out := map[string][][]int64{}
	for name, n := range e.nsMap() {
		for _, label := range labels {
			out[name] = append(out[name], n.inv.Lookup(label))
		}
	}
	return out
}

// links is every stored entry's default rendering.
func links(t *testing.T, e *Engine) map[int64]string {
	t.Helper()
	out := map[int64]string{}
	for _, id := range e.Entries() {
		res, err := e.LinkEntry(id, LinkOptions{})
		if err != nil {
			t.Fatal(err)
		}
		out[id] = res.Output
	}
	return out
}

func requireNoIndexFile(t *testing.T, dir string) {
	t.Helper()
	if _, err := os.Stat(filepath.Join(dir, indexFile)); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("%s after the open: %v", indexFile, err)
	}
}

// A clean Close saves the invalidation indexes, and the next open reads them
// instead of rebuilding: every namespace answers every label as it did.
func TestReopenReadsSavedIndexes(t *testing.T) {
	dir := t.TempDir()
	e, store := openDisk(t, dir)
	labels := writeTwoCorpora(t, e)
	want, wantLinks := lookups(e, labels), links(t, e)
	closeDisk(t, e, store)

	e, store = openDisk(t, dir)
	defer closeDisk(t, e, store)
	if !e.indexesRead {
		t.Fatal("the reopen rebuilt the indexes a clean Close saved")
	}
	requireNoIndexFile(t, dir)
	got := lookups(e, labels)
	for name := range want {
		for i, label := range labels {
			if !slices.Equal(got[name][i], want[name][i]) {
				t.Errorf("corpus %q: Lookup(%q) = %v after the reopen, %v before", name, label, got[name][i], want[name][i])
			}
		}
	}
	if gotLinks := links(t, e); fmt.Sprint(gotLinks) != fmt.Sprint(wantLinks) {
		t.Errorf("links after the reopen:\n%v\nbefore:\n%v", gotLinks, wantLinks)
	}
}

// A file the open cannot trust is removed and the indexes rebuilt, with the
// links they had.
func TestReopenRebuildsWithoutAGoodIndexFile(t *testing.T) {
	for _, tc := range []struct {
		name  string
		spoil func(t *testing.T, dir string, file []byte) []byte // the file to leave, nil for none
	}{
		{"corrupt", func(t *testing.T, dir string, file []byte) []byte {
			file[len(file)/2] ^= 0x40
			return file
		}},
		{"truncated", func(t *testing.T, dir string, file []byte) []byte { return file[:len(file)*2/3] }},
		{"another version", func(t *testing.T, dir string, file []byte) []byte {
			body := file[:len(file)-4]
			binary.LittleEndian.PutUint32(body, binary.LittleEndian.Uint32(body)+1)
			return binary.LittleEndian.AppendUint32(body, crc32.ChecksumIEEE(body))
		}},
		{"stale stamp", func(t *testing.T, dir string, file []byte) []byte {
			store, err := storage.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			if err := store.Put("elsewhere", "k", []byte("a write after the save")); err != nil {
				t.Fatal(err)
			}
			if err := store.Close(); err != nil {
				t.Fatal(err)
			}
			return file
		}},
		{"missing", func(t *testing.T, dir string, file []byte) []byte { return nil }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			e, store := openDisk(t, dir)
			writeTwoCorpora(t, e)
			want := links(t, e)
			closeDisk(t, e, store)
			path := filepath.Join(dir, indexFile)
			file, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.Remove(path); err != nil {
				t.Fatal(err)
			}
			if file = tc.spoil(t, dir, file); file != nil {
				if err := os.WriteFile(path, file, 0o644); err != nil {
					t.Fatal(err)
				}
			}

			e, store = openDisk(t, dir)
			defer closeDisk(t, e, store)
			if e.indexesRead {
				t.Fatal("the open read an index file it should have refused")
			}
			requireNoIndexFile(t, dir)
			if got := links(t, e); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("links after the rebuild:\n%v\nbefore:\n%v", got, want)
			}
		})
	}
}

// freshReopenDir names the data directory TestReopenInFreshProcess hands its
// child process.
const freshReopenDir = "NNEXUS_TEST_FRESH_REOPEN_DIR"

// A process that did not write the index file, and whose vocabulary is
// therefore empty, reads it: the links are the writer's, and every surface
// form of every stored body is in the vocabulary as a rebuild would have put
// it there, so the read path resolves it by one probe.
func TestReopenInFreshProcess(t *testing.T) {
	if dir := os.Getenv(freshReopenDir); dir != "" {
		freshReopen(t, dir)
		return
	}
	dir := t.TempDir()
	e, store := openDisk(t, dir)
	writeTwoCorpora(t, e)
	want, err := json.Marshal(links(t, e))
	if err != nil {
		t.Fatal(err)
	}
	closeDisk(t, e, store)
	if err := os.WriteFile(filepath.Join(dir, "links.json"), want, 0o644); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestReopenInFreshProcess$", "-test.count=1", "-test.v")
	cmd.Env = append(os.Environ(), freshReopenDir+"="+dir)
	out, err := cmd.CombinedOutput()
	if err != nil || !strings.Contains(string(out), "--- PASS: TestReopenInFreshProcess") {
		t.Fatalf("the child process: %v\n%s", err, out)
	}
}

func freshReopen(t *testing.T, dir string) {
	if n := morph.Words(); n != 0 {
		t.Fatalf("the child's vocabulary holds %d words before the open", n)
	}
	e, store := openDisk(t, dir)
	defer closeDisk(t, e, store)
	if !e.indexesRead {
		t.Fatal("the child rebuilt the indexes")
	}
	data, err := os.ReadFile(filepath.Join(dir, "links.json"))
	if err != nil {
		t.Fatal(err)
	}
	var want map[int64]string
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	vocab := morph.Current()
	for _, id := range e.Entries() {
		entry, _ := e.Entry(id)
		for _, tok := range tokenizer.Tokenize(entry.Body) {
			if form := entry.Body[tok.Start:tok.End]; vocab.FormID(form) == 0 {
				t.Errorf("entry %d: the form %q is not in the vocabulary", id, form)
			}
		}
	}
	if got := links(t, e); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("links in the child:\n%v\nin the parent:\n%v", got, want)
	}
}
