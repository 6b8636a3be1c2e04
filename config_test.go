package nnexus_test

// The node document: what LoadConfig and ParseArgs accept, that a setting has
// one spelling whether it arrives as a flag or as an attribute, and that New
// judges a Config before it touches anything. The first seven tests are the
// cases of the former deployment-configuration package, on the facade.

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"nnexus"
)

const sampleConfig = `<?xml version="1.0"?>
<nnexus>
  <server addr="127.0.0.1:7070" http="127.0.0.1:8080" data="/var/lib/nnexus" sync="true"/>
  <scheme name="msc" base="10" file="sample"/>
  <domain name="planetmath.org" priority="1" scheme="msc">
    <urltemplate>http://planetmath.org/?op=getobj&amp;id={id}</urltemplate>
  </domain>
  <domain name="mathworld.wolfram.com" priority="2" scheme="msc">
    <urltemplate>http://mathworld.wolfram.com/{id}.html</urltemplate>
  </domain>
  <mapper from="loc" to="msc">
    <rule from="QA166"><to>05Cxx</to></rule>
    <rule from="QA*"><to>03-XX</to><to>05-XX</to></rule>
  </mapper>
</nnexus>`

// packageExample is the document the former package's comment gave as its
// example; its scheme file sits next to it.
const packageExample = `<nnexus>
  <server addr="127.0.0.1:7070" http="127.0.0.1:8080" data="/var/lib/nnexus"/>
  <scheme name="msc" base="10" file="msc.owl"/>
  <domain name="planetmath.org" priority="1" scheme="msc">
    <urltemplate>http://planetmath.org/?op=getobj&amp;id={id}</urltemplate>
  </domain>
  <domain name="mathworld.wolfram.com" priority="2" scheme="msc">
    <urltemplate>http://mathworld.wolfram.com/{id}.html</urltemplate>
  </domain>
  <mapper from="loc" to="msc">
    <rule from="QA166"><to>05Cxx</to></rule>
    <rule from="QA*"><to>00-XX</to><to>05-XX</to></rule>
  </mapper>
</nnexus>`

func writeFile(t *testing.T, dir, name, content string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func writeOWL(t *testing.T, dir, name string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := nnexus.SaveSchemeOWL(f, nnexus.SampleMSC(10)); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestLoadConfigCompat: every document the former package loaded still loads,
// into the same values.
func TestLoadConfigCompat(t *testing.T) {
	dir := t.TempDir()
	writeOWL(t, dir, "msc.owl")
	for name, doc := range map[string]string{"sample": sampleConfig, "package example": packageExample} {
		cfg, err := nnexus.LoadConfig(writeFile(t, dir, "nnexus.xml", doc))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if cfg.Listen != "127.0.0.1:7070" || cfg.HTTP != "127.0.0.1:8080" || cfg.DataDir != "/var/lib/nnexus" ||
			cfg.SyncWrites != (name == "sample") {
			t.Errorf("%s: server = %q %q %q sync=%v", name, cfg.Listen, cfg.HTTP, cfg.DataDir, cfg.SyncWrites)
		}
		if cfg.SchemeName != "msc" || cfg.SchemeBase != 10 {
			t.Errorf("%s: scheme = %q base %d", name, cfg.SchemeName, cfg.SchemeBase)
		}
		if len(cfg.Domains) != 2 || cfg.Domains[0].Name != "planetmath.org" || cfg.Domains[1].Priority != 2 ||
			cfg.Domains[0].URLTemplate != "http://planetmath.org/?op=getobj&id={id}" {
			t.Errorf("%s: domains = %+v", name, cfg.Domains)
		}
		if len(cfg.Mappers) != 1 || cfg.Mappers[0].From != "loc" || cfg.Mappers[0].Len() != 2 {
			t.Fatalf("%s: mappers = %+v", name, cfg.Mappers)
		}
		if to, _ := cfg.Mappers[0].Map("QA200"); len(to) != 2 {
			t.Errorf("%s: prefix rule QA* maps to %v, want two classes", name, to)
		}
	}
}

func TestConfigParseErrors(t *testing.T) {
	bad := []string{
		`not xml at all`,
		`<nnexus><domain priority="1"><urltemplate>u</urltemplate></domain></nnexus>`,
		`<nnexus><domain name="d"/></nnexus>`,
		`<nnexus><domain name="d"><urltemplate>u</urltemplate></domain>
		 <domain name="d"><urltemplate>u</urltemplate></domain></nnexus>`,
		`<nnexus><mapper to="msc"><rule from="a"><to>b</to></rule></mapper></nnexus>`,
		`<nnexus><mapper from="a" to="b"><rule from="x"></rule></mapper></nnexus>`,
	}
	dir := t.TempDir()
	for i, doc := range bad {
		if _, err := nnexus.LoadConfig(writeFile(t, dir, "bad.xml", doc)); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestConfigApply(t *testing.T) {
	cfg, err := nnexus.LoadConfig(writeFile(t, t.TempDir(), "nnexus.xml", sampleConfig))
	if err != nil {
		t.Fatal(err)
	}
	cfg.DataDir = ""
	engine, err := nnexus.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer engine.Close()
	if got := engine.Domains(); len(got) != 2 {
		t.Errorf("domains = %v", got)
	}
	d, ok := engine.Domain("mathworld.wolfram.com")
	if !ok || d.Priority != 2 {
		t.Errorf("domain = %+v", d)
	}
}

func TestConfigBuildSchemeSample(t *testing.T) {
	// The built-in, by name; what the flag and the file default to.
	engine, err := nnexus.New(nnexus.Config{SchemeFile: "sample"})
	if err != nil {
		t.Fatal(err)
	}
	defer engine.Close()
	if s := engine.Scheme(); s.BaseWeight() != nnexus.DefaultBaseWeight || !s.Has("05C10") {
		t.Errorf("sample scheme: base %d, has 05C10 = %v", s.BaseWeight(), s.Has("05C10"))
	}
	// Neither a scheme nor a file stays an error.
	if _, err := nnexus.New(nnexus.Config{}); err == nil {
		t.Error("a Config naming no scheme was accepted")
	}
}

// TestConfigRefusesOverflowingScheme: a weight base or a chain of classes
// deep enough that class distances would overflow is refused with an error
// naming the scheme, from the sample and from an OWL document alike, and
// neither panics. At base 10 a chain builds up to 19 classes deep.
func TestConfigRefusesOverflowingScheme(t *testing.T) {
	if _, err := nnexus.New(nnexus.Config{SchemeFile: "sample", SchemeBase: 4_000_000_000}); err == nil ||
		!strings.Contains(err.Error(), `scheme "msc" of height 3 at base 4000000000`) {
		t.Errorf("sample at base 4,000,000,000: New error %v", err)
	}
	chain := func(depth int) string {
		var doc strings.Builder
		doc.WriteString(`<rdf:RDF xmlns:rdf="http://www.w3.org/1999/02/22-rdf-syntax-ns#" xmlns:owl="http://www.w3.org/2002/07/owl#" xmlns:rdfs="http://www.w3.org/2000/01/rdf-schema#">`)
		for i := 1; i <= depth; i++ {
			fmt.Fprintf(&doc, `<owl:Class rdf:ID="c%d">`, i)
			if i > 1 {
				fmt.Fprintf(&doc, `<rdfs:subClassOf rdf:resource="#c%d"/>`, i-1)
			}
			doc.WriteString(`</owl:Class>`)
		}
		return doc.String() + `</rdf:RDF>`
	}
	if _, err := nnexus.LoadSchemeOWL(strings.NewReader(chain(19)), "deep", 10); err != nil {
		t.Errorf("19-deep chain: %v", err)
	}
	if _, err := nnexus.LoadSchemeOWL(strings.NewReader(chain(20)), "deep", 10); err == nil ||
		!strings.Contains(err.Error(), `scheme "deep" of height 20 at base 10`) {
		t.Errorf("20-deep chain: LoadSchemeOWL error %v", err)
	}
}

func TestConfigLoadWithRelativeOWLFile(t *testing.T) {
	dir := t.TempDir()
	writeOWL(t, dir, "scheme.owl")
	cfg, err := nnexus.LoadConfig(writeFile(t, dir, "nnexus.xml", `<nnexus><scheme name="msc" base="5" file="scheme.owl"/>
	  <domain name="d" scheme="msc"><urltemplate>http://d/{id}</urltemplate></domain></nnexus>`))
	if err != nil {
		t.Fatal(err)
	}
	engine, err := nnexus.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer engine.Close()
	if s := engine.Scheme(); s.BaseWeight() != 5 || !s.Has("05C40") {
		t.Errorf("scheme = base %d, has 05C40 = %v", s.BaseWeight(), s.Has("05C40"))
	}
}

func TestConfigLoadMissingFile(t *testing.T) {
	if _, err := nnexus.LoadConfig("/does/not/exist.xml"); err == nil {
		t.Error("missing file accepted")
	}
}

func TestConfigBuildSchemeMissingOWL(t *testing.T) {
	if _, err := nnexus.New(nnexus.Config{SchemeFile: "/does/not/exist.owl"}); err == nil {
		t.Error("missing OWL accepted by New")
	}
	doc := writeFile(t, t.TempDir(), "nnexus.xml", `<nnexus><scheme file="/does/not/exist.owl"/></nnexus>`)
	if _, err := nnexus.LoadConfig(doc); err == nil {
		t.Error("missing OWL accepted by LoadConfig")
	}
}

// TestConfigOneSpelling: a setting is one flag of Config.Flags, and that
// flag's name and value syntax are also its spelling in the file. For every
// registered flag, giving it as an attribute yields the Config that giving it
// on the command line does.
func TestConfigOneSpelling(t *testing.T) {
	dir := t.TempDir()
	owl := writeOWL(t, dir, "msc.owl")
	// A consistent node with every setting off its default: a clustered
	// initial primary...
	primary := map[string]string{
		"addr": "127.0.0.1:7171", "http": "127.0.0.1:8181", "pprof": "true",
		"data": filepath.Join(dir, "data"), "sync": "true",
		"scheme": owl, "scheme-name": "msc2000", "base": "7", "default-corpus": "pm",
		"compile-automaton": "false", "drain-timeout": "9s", "max-conns": "11", "max-active": "12",
		"repl-primary": "true", "peers": "n1:7070, n2:7070", "advertise": "n0:7070",
		"election-timeout": "750ms", "quorum-acks": "1", "quorum-timeout": "2s",
	}
	// ... and the same node booting as a follower, for the two settings a
	// primary cannot have.
	follower := map[string]string{"follow": "n1:7070", "replica-name": "r0"}
	for k, v := range primary {
		if k != "repl-primary" {
			follower[k] = v
		}
	}

	var registered []string
	var probe nnexus.Config
	fs := flag.NewFlagSet("probe", flag.ContinueOnError)
	probe.Flags(fs)
	fs.VisitAll(func(f *flag.Flag) { registered = append(registered, f.Name) })
	if len(registered) != len(primary)+2 {
		t.Fatalf("Config.Flags registers %d flags %v; this test knows %d", len(registered), registered, len(primary)+2)
	}

	for _, name := range registered {
		profile := primary
		if _, ok := profile[name]; !ok {
			profile = follower
		}
		value, ok := profile[name]
		if !ok {
			t.Errorf("flag -%s is not covered by this test", name)
			continue
		}
		var all, others []string
		for k, v := range profile {
			all = append(all, "-"+k+"="+v)
			if k != name {
				others = append(others, "-"+k+"="+v)
			}
		}
		sort.Strings(all)
		fromFlags, err := nnexus.ParseArgs("nnexusd", all)
		if err != nil {
			t.Fatalf("-%s: command line %v: %v", name, all, err)
		}
		if reflect.DeepEqual(fromFlags, withDefault(t, name, all)) {
			t.Errorf("-%s=%s does not move the Config off its default: the test proves nothing for it", name, value)
		}
		for _, elem := range []string{"server", "replication"} {
			doc := writeFile(t, dir, "one.xml", `<nnexus><`+elem+` `+name+`="`+value+`"/></nnexus>`)
			fromFile, err := nnexus.ParseArgs("nnexusd", append([]string{"-config", doc}, others...))
			if err != nil {
				t.Errorf("<%s %s=%q>: %v", elem, name, value, err)
			} else if !reflect.DeepEqual(fromFile, fromFlags) {
				t.Errorf("<%s %s=%q> and -%s=%s disagree:\nfile  %+v\nflags %+v", elem, name, value, name, value, fromFile, fromFlags)
			}
		}
	}

	// A misspelt or retired attribute, or a value the flag would refuse, is
	// an error that names it.
	for _, c := range []struct{ doc, want string }{
		{`<nnexus><server adr="127.0.0.1:1"/></nnexus>`, "adr"},
		{`<nnexus><server request-timeout="10s"/></nnexus>`, "request-timeout"},
		{`<nnexus><server max-pipeline="14"/></nnexus>`, "max-pipeline"},
		{`<nnexus><replication quorum-timeout="soon"/></nnexus>`, "quorum-timeout"},
		{`<nnexus><server config="other.xml"/></nnexus>`, "config"},
		{`<nnexus><scheme nmae="msc"/></nnexus>`, "nmae"},
	} {
		_, err := nnexus.LoadConfig(writeFile(t, dir, "bad.xml", c.doc))
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %v, want one naming %q", c.doc, err, c.want)
		}
	}

	// Built-in default < file < explicit flag.
	doc := writeFile(t, dir, "prec.xml", `<nnexus><server addr="127.0.0.1:7272" sync="true" drain-timeout="5s"/></nnexus>`)
	cfg, err := nnexus.ParseArgs("nnexusd", []string{"-sync=false", "-config", doc, "-max-conns", "3"})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Listen != "127.0.0.1:7272" || cfg.DrainTimeout != 5*time.Second {
		t.Errorf("the file did not beat the defaults: addr %q, drain-timeout %v", cfg.Listen, cfg.DrainTimeout)
	}
	if cfg.SyncWrites || cfg.MaxConns != 3 {
		t.Errorf("the command line did not beat the file: sync %v, max-conns %d", cfg.SyncWrites, cfg.MaxConns)
	}
	if !cfg.CompileAutomaton || cfg.SchemeFile != "sample" {
		t.Errorf("defaults lost: compile-automaton %v, scheme %q", cfg.CompileAutomaton, cfg.SchemeFile)
	}
}

// TestConfigUnknownSetting: a child element of <nnexus> the loader does not
// read, and a flag Config.Flags does not register, are errors naming them
// rather than settings silently dropped. A node once configured as one shard
// of a sharded fleet must not boot its partial store as the whole corpus,
// and one once configured with tenant quotas and rate limits must not boot
// without them unnoticed.
func TestConfigUnknownSetting(t *testing.T) {
	dir := t.TempDir()
	for _, c := range []struct{ doc, want string }{
		{`<nnexus><server addr="127.0.0.1:1"/><shard shard-map="shards.json" shard-id="1"/></nnexus>`, "<shard>"},
		{`<nnexus><tenants tenant-config="tenants.json"/></nnexus>`, "<tenants>"},
		{`<nnexus><replicaton repl-primary="true"/></nnexus>`, "<replicaton>"},
	} {
		path := writeFile(t, dir, "unknown.xml", c.doc)
		if _, err := nnexus.LoadConfig(path); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("LoadConfig %s: error %v, want one naming %s", c.doc, err, c.want)
		}
		if _, err := nnexus.ParseArgs("nnexusd", []string{"-config", path}); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("ParseArgs -config %s: error %v, want one naming %s", c.doc, err, c.want)
		}
	}
	if _, err := nnexus.ParseArgs("nnexusd", []string{"-shard-map", filepath.Join(dir, "shards.json"), "-shard-id", "1"}); err == nil || !strings.Contains(err.Error(), "shard-map") {
		t.Errorf("-shard-map: error %v, want one naming the flag", err)
	}
	if _, err := nnexus.ParseArgs("nnexusd", []string{"-tenant-config", filepath.Join(dir, "tenants.json")}); err == nil || !strings.Contains(err.Error(), "tenant-config") {
		t.Errorf("-tenant-config: error %v, want one naming the flag", err)
	}
}

// withDefault parses args without the named flag.
func withDefault(t *testing.T, name string, args []string) nnexus.Config {
	t.Helper()
	var rest []string
	for _, a := range args {
		if !strings.HasPrefix(a, "-"+name+"=") {
			rest = append(rest, a)
		}
	}
	cfg, err := nnexus.ParseArgs("nnexusd", rest)
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

// TestNewRejectsBeforeOpening: a Config that New refuses has touched nothing —
// the data directory it names does not exist afterwards.
func TestNewRejectsBeforeOpening(t *testing.T) {
	dir := t.TempDir()
	scheme := nnexus.SampleMSC(10)
	for name, cfg := range map[string]nnexus.Config{
		"missing OWL":           {SchemeFile: filepath.Join(dir, "missing.owl")},
		"no scheme":             {},
		"domain without URL":    {Scheme: scheme, Domains: []nnexus.Domain{{Name: "d"}}},
		"self-mapping mapper":   {Scheme: scheme, Mappers: []*nnexus.Mapper{nnexus.NewMapper("msc", "msc")}},
		"quorum without a role": {Scheme: scheme, QuorumAcks: 1},
	} {
		cfg.DataDir = filepath.Join(dir, "fresh")
		engine, err := nnexus.New(cfg)
		if err == nil {
			engine.Close()
			t.Fatalf("%s: accepted", name)
		}
		if _, statErr := os.Stat(cfg.DataDir); !os.IsNotExist(statErr) {
			t.Errorf("%s: New failed (%v) but left %s behind", name, err, cfg.DataDir)
			os.RemoveAll(cfg.DataDir)
		}
	}
}

// TestFailedNewLeaksNothing: a New that fails after the engine exists closes
// it — no compiler goroutine, no open store — so the goroutine count returns
// to where it started and the directory can be opened again.
func TestFailedNewLeaksNothing(t *testing.T) {
	dir := t.TempDir()
	cfg := nnexus.Config{Scheme: nnexus.SampleMSC(10), DataDir: dir, CompileAutomaton: true,
		ReplicationPrimary: true, ClusterPeers: []string{"n1:1", "n2:1"}, AdvertiseAddr: "n0:1"}
	writeFile(t, dir, "election.epoch", "not an epoch")
	before := runtime.NumGoroutine()
	for i := 0; i < 20; i++ {
		if engine, err := nnexus.New(cfg); err == nil {
			engine.Close()
			t.Fatal("a corrupt election.epoch was accepted")
		}
	}
	waitFor(t, "the goroutines of 20 failed boots to exit", func() bool { return runtime.NumGoroutine() <= before })
	if err := os.Remove(filepath.Join(dir, "election.epoch")); err != nil {
		t.Fatal(err)
	}
	engine, err := nnexus.New(cfg)
	if err != nil {
		t.Fatalf("the directory of the failed boots does not open: %v", err)
	}
	engine.Close()
}

// TestRestartAppendsNoDomainRecord: the configured domains cost WAL records
// on the first boot only; a restart that replays them unchanged appends
// nothing, and a changed one appends exactly itself.
func TestRestartAppendsNoDomainRecord(t *testing.T) {
	cfg, err := nnexus.LoadConfig(writeFile(t, t.TempDir(), "nnexus.xml", sampleConfig))
	if err != nil {
		t.Fatal(err)
	}
	cfg.DataDir, cfg.ReplicationPrimary = t.TempDir(), true
	boot := func() float64 {
		t.Helper()
		engine, err := nnexus.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer engine.Close()
		appends, _ := engine.TelemetrySnapshot()["nnexus_wal_appends_total"].(float64)
		return appends
	}
	if got := boot(); got != 2 {
		t.Fatalf("first boot appended %v records, want one per configured domain (2)", got)
	}
	for i := 0; i < 2; i++ {
		if got := boot(); got != 0 {
			t.Errorf("restart %d appended %v records for domains the store replayed", i+1, got)
		}
	}
	cfg.Domains[1].Priority = 5
	if got := boot(); got != 1 {
		t.Errorf("a restart with one changed domain appended %v records, want 1", got)
	}
}
