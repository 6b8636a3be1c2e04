package main

import (
	"os"
	"path/filepath"
	"testing"

	"nnexus"
)

const testDump = `<records domain="planetmath.org" scheme="msc">
  <record id="PlanarGraph">
    <title>planar graph</title>
    <concept>planar graph</concept>
    <class>05C10</class>
    <body>Every planar graph is a graph.</body>
  </record>
  <record id="Graph">
    <title>graph</title>
    <class>05C99</class>
    <body>A set of vertices with edges.</body>
  </record>
</records>
`

func writeDump(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "dump.xml")
	if err := os.WriteFile(path, []byte(testDump), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// import works on a data directory only: given -server it must refuse the
// flag, not import into a memory-only engine and report success.
func TestImportRefusesServer(t *testing.T) {
	if err := runImport([]string{"-server", "127.0.0.1:1", writeDump(t)}); err == nil {
		t.Fatal("import -server succeeded; want an undefined-flag error")
	}
	for _, run := range []func([]string) error{runScheme, runSuggest, runNetwork} {
		if err := run([]string{"-server", "127.0.0.1:1"}); err == nil {
			t.Error("a local-only subcommand accepted -server")
		}
	}
}

// An import into -data persists: the directory reopens with the dump's
// domain and entries.
func TestImportPersistsToDataDir(t *testing.T) {
	dir := t.TempDir()
	if err := runImport([]string{"-data", dir, writeDump(t)}); err != nil {
		t.Fatal(err)
	}
	e, err := nnexus.New(nnexus.Config{DataDir: dir, SchemeFile: "sample"})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if n := e.NumEntries(); n != 2 {
		t.Fatalf("reopened with %d entries, want 2", n)
	}
	if d, ok := e.Domain("planetmath.org"); !ok || d.Scheme != "msc" || d.Priority != 1 {
		t.Fatalf("domain = %+v, %v", d, ok)
	}
	got := map[string]bool{}
	for _, id := range e.Entries() {
		entry, _ := e.Entry(id)
		got[entry.ExternalID] = true
	}
	if !got["PlanarGraph"] || !got["Graph"] {
		t.Errorf("reopened entries = %v", got)
	}
}
