package nnexus_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"nnexus"
)

// TestFullDeployment drives a realistic deployment end to end:
//
//  1. an XML configuration file defines two domains (different
//     classification schemes) and an ontology mapper, plus an OWL scheme
//     file on disk;
//  2. a persistent engine is built from it;
//  3. corpora are imported over the streaming OAI path;
//  4. documents are linked over the XML socket protocol AND the HTTP API;
//  5. linking policies, invalidation, and the rendered cache all engage;
//  6. the deployment is restarted from disk and produces identical output.
func TestFullDeployment(t *testing.T) {
	dir := t.TempDir()

	// 1. Scheme file + configuration on disk.
	schemePath := filepath.Join(dir, "msc.owl")
	f, err := os.Create(schemePath)
	if err != nil {
		t.Fatal(err)
	}
	if err := nnexus.SaveSchemeOWL(f, nnexus.SampleMSC(10)); err != nil {
		t.Fatal(err)
	}
	f.Close()

	confPath := filepath.Join(dir, "nnexus.xml")
	conf := `<nnexus>
	  <scheme name="msc" base="10" file="msc.owl"/>
	  <domain name="planetmath.org" priority="1" scheme="msc">
	    <urltemplate>http://planetmath.org/?op=getobj&amp;id={id}</urltemplate>
	  </domain>
	  <domain name="lectures.example.edu" priority="2" scheme="lcc">
	    <urltemplate>http://lectures.example.edu/{id}</urltemplate>
	  </domain>
	  <mapper from="lcc" to="msc">
	    <rule from="QA166"><to>05Cxx</to></rule>
	  </mapper>
	</nnexus>`
	if err := os.WriteFile(confPath, []byte(conf), 0o644); err != nil {
		t.Fatal(err)
	}

	cfg, err := nnexus.LoadConfig(confPath)
	if err != nil {
		t.Fatal(err)
	}
	cfg.DataDir = filepath.Join(dir, "data")
	engine, err := nnexus.New(cfg)
	if err != nil {
		t.Fatal(err)
	}

	// 2. Streamed OAI import of the math corpus.
	dump := `<records domain="planetmath.org" scheme="msc">
	  <record id="2761"><title>planar graph</title><class>05C10</class>
	    <body>A planar graph embeds in the plane without crossing edges.</body></record>
	  <record id="1021"><title>graph</title><class>05C99</class></record>
	  <record id="1022"><title>graph</title><class>03E20</class></record>
	  <record id="3310"><title>plane</title><class>51A05</class></record>
	  <record id="5512"><title>even number</title><concept>even</concept><class>11A51</class>
	    <policy>forbid even
allow even from 11-XX</policy></record>
	</records>`
	n, err := engine.ImportOAIStream(strings.NewReader(dump))
	if err != nil {
		t.Fatal(err)
	}
	if n != 5 {
		t.Fatalf("imported = %d", n)
	}
	// A foreign-scheme entry via the lectures domain.
	if _, err := engine.AddEntry(&nnexus.Entry{
		Domain: "lectures.example.edu", ExternalID: "minors",
		Title: "graph minor", Classes: []string{"QA166"},
	}); err != nil {
		t.Fatal(err)
	}

	// 3. Link over the XML socket protocol.
	srv, addr, err := engine.Serve("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := nnexus.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	text := "every planar graph has a graph minor, even the plane ones"
	socketRes, err := cli.LinkText(text, []string{"05C10"}, "msc", "", "")
	if err != nil {
		t.Fatal(err)
	}
	byLabel := map[string]string{}
	for _, l := range socketRes.Links {
		byLabel[l.Label] = l.URL
	}
	if !strings.Contains(byLabel["planar graph"], "planetmath.org") {
		t.Errorf("planar graph url = %q", byLabel["planar graph"])
	}
	if !strings.Contains(byLabel["graph minor"], "lectures.example.edu") {
		t.Errorf("cross-corpus link missing: %v", byLabel)
	}
	if _, linked := byLabel["even"]; linked {
		t.Error("policy failed over socket")
	}

	// 4. The same request over HTTP gives the same links.
	hsrv := httptest.NewServer(engine.HTTPHandler())
	defer hsrv.Close()
	body, _ := json.Marshal(map[string]interface{}{
		"text": text, "classes": []string{"05C10"},
	})
	resp, err := http.Post(hsrv.URL+"/api/link", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var httpRes nnexus.Result
	if err := json.NewDecoder(resp.Body).Decode(&httpRes); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(httpRes.Links) != len(socketRes.Links) {
		t.Fatalf("HTTP links %d vs socket links %d", len(httpRes.Links), len(socketRes.Links))
	}
	if httpRes.Output != socketRes.Output {
		t.Error("HTTP and socket outputs differ")
	}

	// 5. Invalidation + cached rendering. Entry 1's body mentions "plane";
	// removing "plane" invalidates it and the re-render drops the link.
	first, _, err := engine.LinkEntryCached(1)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(first.Output, "3310") && !linksContain(first.Links, "plane") {
		t.Fatalf("expected plane link in %q", first.Output)
	}
	if err := engine.RemoveEntry(4); err != nil { // "plane"
		t.Fatal(err)
	}
	second, cached, err := engine.LinkEntryCached(1)
	if err != nil {
		t.Fatal(err)
	}
	if cached {
		t.Error("stale cache after removal")
	}
	if linksContain(second.Links, "plane") {
		t.Error("link to removed entry survived")
	}

	// 6. Restart from disk: identical rendering. ("plane" was removed
	// above, so capture the post-removal free-text rendering first.)
	postRemoval, err := engine.LinkText(text, nnexus.LinkOptions{SourceClasses: []string{"05C10"}})
	if err != nil {
		t.Fatal(err)
	}
	if err := engine.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := engine.Close(); err != nil {
		t.Fatal(err)
	}
	engine2, err := nnexus.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer engine2.Close()
	after, _, err := engine2.LinkEntryCached(1)
	if err != nil {
		t.Fatal(err)
	}
	if after.Output != second.Output {
		t.Errorf("rendering changed after restart:\n%s\n%s", second.Output, after.Output)
	}
	res2, err := engine2.LinkText(text, nnexus.LinkOptions{SourceClasses: []string{"05C10"}})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Output != postRemoval.Output {
		t.Error("free-text rendering changed after restart")
	}
}

func linksContain(links []nnexus.Link, label string) bool {
	for _, l := range links {
		if l.Label == label {
			return true
		}
	}
	return false
}
