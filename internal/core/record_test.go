package core

import (
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"nnexus/internal/classification"
	"nnexus/internal/storage"
)

// jsonStore writes a store exactly as a pre-tenancy engine did: domain and
// entry records as JSON, with no corpus field anywhere.
func jsonStore(t *testing.T, dir string) []storage.BatchOp {
	t.Helper()
	store, err := storage.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	var ops []storage.BatchOp
	put := func(table, key string, v interface{}) {
		data, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		ops = append(ops, storage.BatchOp{Table: table, Key: key, Value: data})
	}
	put(tableDomains, "planetmath.org", map[string]interface{}{
		"name": "planetmath.org", "urlTemplate": "http://pm/{id}",
		"scheme": "msc", "priority": 1,
	})
	put(tableEntries, entryKey(1), map[string]interface{}{
		"id": 1, "domain": "planetmath.org", "externalId": "1",
		"title": "planar graph", "classes": []string{"05C10"},
	})
	if err := store.PutBatch(ops); err != nil {
		t.Fatal(err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	return ops
}

// TestJSONRecordsRefused: a data directory whose entry and domain records
// are JSON is not read, on a reopen or by a follower; the error names the
// format and the way out. The records decode no other way.
func TestJSONRecordsRefused(t *testing.T) {
	dir := t.TempDir()
	ops := jsonStore(t, dir)
	check := func(what string, err error, table string) {
		t.Helper()
		var jerr *JSONRecordError
		if !errors.As(err, &jerr) || jerr.Table != table {
			t.Fatalf("%s: err = %v, want a JSONRecordError for table %s", what, err, table)
		}
		if msg := err.Error(); !strings.Contains(msg, "JSON record format") || !strings.Contains(msg, "nnexus import") {
			t.Fatalf("%s: error %q does not name the format and the re-import", what, msg)
		}
	}

	store, err := storage.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	_, err = NewEngine(Config{Scheme: classification.SampleMSC(10), Store: store})
	check("reopen", err, tableDomains)

	for _, op := range ops {
		follower := newStoreless(t)
		check("follower", follower.ApplyReplicated([]storage.BatchOp{op}), op.Table)
	}
}
