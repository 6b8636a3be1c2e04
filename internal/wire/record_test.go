package wire

import (
	"reflect"
	"runtime"
	"strings"
	"testing"

	"nnexus/internal/corpus"
)

// FuzzEntryCodec: an entry and a domain, once Canonical has admitted them,
// come back from their records unchanged, own every byte they hold, and
// are left as they are by a second Canonical.
func FuzzEntryCodec(f *testing.F) {
	f.Add(int64(7), "default", "planetmath.org", "2761", "planar graph", "plane graph,,a", "05C10,",
		"bad \xff byte \x01 <b>&amp;]]>\r\n\t\"'￾é", "forbid even", 3)
	f.Add(int64(-1), "", "", "", "", "", "", "", "", 0)
	f.Fuzz(func(t *testing.T, id int64, corpusName, domain, external, title, concepts, classes, body, pol string, priority int) {
		e := &corpus.Entry{ID: id, Corpus: corpusName, Domain: domain, ExternalID: external, Title: title,
			Concepts: strings.Split(concepts, ","), Classes: strings.Split(classes, ","), Body: body, Policy: pol}
		checkRecord(t, e, new(corpus.Entry))
		d := &corpus.Domain{Name: domain, URLTemplate: body, Scheme: title, Priority: priority}
		checkRecord(t, d, new(corpus.Domain))
	})
}

func checkRecord[T Record](t *testing.T, v, got T) {
	t.Helper()
	value := func(p T) interface{} { return reflect.ValueOf(p).Elem().Interface() }
	Canonical(v)
	want := value(v)
	if Canonical(v); !reflect.DeepEqual(value(v), want) {
		t.Fatalf("Canonical is not idempotent: %+q, then %+q", want, value(v))
	}
	rec := AppendRecord(nil, v)
	if err := DecodeRecord(rec, got); err != nil {
		t.Fatalf("DecodeRecord(%q): %v", rec, err)
	}
	for i := range rec {
		rec[i] = 'x'
	}
	if !reflect.DeepEqual(value(got), want) {
		t.Fatalf("record round trip:\n got %+q\nwant %+q", value(got), want)
	}
}

// TestDecodeRecordInPlace: a record is read where it lies, so decoding one
// allocates its strings' bytes (here 80% of the record's) and not a 4 KB
// read window or a copy of the record. The slack is the race detector's:
// its sync.Pool drops a quarter of what it is handed.
func TestDecodeRecordInPlace(t *testing.T) {
	e := &corpus.Entry{ID: 2761, Corpus: "default", Domain: "planetmath.org", ExternalID: "2761",
		Title: "planar graph", Concepts: []string{"plane graph"}, Classes: []string{"05C10"},
		Body: strings.Repeat("a graph & its <em>embedding</em> in the plane. ", 20)}
	rec := AppendRecord(nil, e)
	var got corpus.Entry
	const runs = 1000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		got = corpus.Entry{}
		if err := DecodeRecord(rec, &got); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perRecord := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("%d-byte record: %d bytes allocated per decode", len(rec), perRecord)
	if perRecord > uint64(len(rec)+1024) {
		t.Errorf("%d bytes allocated per decode of a %d-byte record", perRecord, len(rec))
	}
	if !reflect.DeepEqual(got, *e) {
		t.Fatalf("got %+v", got)
	}
	if err := DecodeRecord([]byte(`{"id":1}`), &got); err == nil {
		t.Error("a JSON record decoded")
	}
}
