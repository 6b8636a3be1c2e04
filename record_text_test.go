package nnexus_test

// An entry's text is one fact on every node and across restarts: the engine
// admits it in the form its record decodes to, so a reopened store and a
// follower fed the record hold and link the text the writer holds.

import (
	"encoding/json"
	"errors"
	"reflect"
	"testing"

	"nnexus"
	"nnexus/internal/core"
	"nnexus/internal/storage"
)

var recordTextDomain = nnexus.Domain{Name: "planetmath.org", URLTemplate: "http://pm/{id}", Scheme: "msc", Priority: 1}

// recordTextEntries hold what the record form does not carry as it is: a
// byte that is not UTF-8, a control character XML has no way to write, and
// blank concepts and classes.
func recordTextEntries() []*nnexus.Entry {
	return []*nnexus.Entry{
		{Domain: "planetmath.org", Title: "planar graph", Concepts: []string{"a", ""}, Classes: []string{"05C10", ""},
			Body: "bad \xff byte planar graph"},
		{Domain: "planetmath.org", Title: "graph \x01", Classes: []string{"05C99"},
			Body: "a control \x01 character in a planar graph"},
	}
}

// recordTextState is what a node holds of the entries: each entry and its
// linked form.
func recordTextState(t *testing.T, e *nnexus.Engine, ids []int64) []interface{} {
	t.Helper()
	var out []interface{}
	for _, id := range ids {
		entry, ok := e.Entry(id)
		if !ok {
			t.Fatalf("entry %d missing", id)
		}
		res, err := e.LinkEntry(id, nnexus.LinkOptions{})
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, *entry, *res)
	}
	return out
}

func TestEntryTextSurvivesReopen(t *testing.T) {
	cfg := nnexus.Config{Scheme: nnexus.SampleMSC(10), DataDir: t.TempDir()}
	e, err := nnexus.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.AddDomain(recordTextDomain); err != nil {
		t.Fatal(err)
	}
	var ids []int64
	for _, entry := range recordTextEntries() {
		id, err := e.AddEntry(entry)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	want := recordTextState(t, e, ids)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	reopened, err := nnexus.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	if got := recordTextState(t, reopened, ids); !reflect.DeepEqual(got, want) {
		t.Fatalf("after a reopen:\n got %+q\nwant %+q", got, want)
	}
}

func TestEntryTextReachesFollower(t *testing.T) {
	cl, _ := startReplicas(t, 1)
	primary, follower := cl.Engines[0], cl.Engines[1]
	if err := primary.AddDomain(recordTextDomain); err != nil {
		t.Fatal(err)
	}
	ids, err := primary.AddEntries(recordTextEntries())
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "follower caught up", func() bool {
		st := follower.Replication()
		return st.Applied == primary.Replication().Head && st.Synced
	})
	if got, want := recordTextState(t, follower, ids), recordTextState(t, primary, ids); !reflect.DeepEqual(got, want) {
		t.Fatalf("on the follower:\n got %+q\nwant %+q", got, want)
	}
}

// TestJSONDataDirRefused: a data directory written when entry records were
// JSON fails New by name; nothing migrates it.
func TestJSONDataDirRefused(t *testing.T) {
	dir := t.TempDir()
	store, err := storage.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	data, _ := json.Marshal(recordTextDomain)
	if err := store.Put("domains", recordTextDomain.Name, data); err != nil {
		t.Fatal(err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	_, err = nnexus.New(nnexus.Config{Scheme: nnexus.SampleMSC(10), DataDir: dir})
	var jerr *core.JSONRecordError
	if !errors.As(err, &jerr) {
		t.Fatalf("New over JSON records = %v, want a JSONRecordError", err)
	}
}
