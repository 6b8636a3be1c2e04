// Command nnexus is the NNexus command-line tool: it manages a local
// collection (or talks to a running nnexusd) and links documents against
// it.
//
// Subcommands:
//
//	nnexus import  -data DIR corpus.xml        ingest an OAI-style dump
//	nnexus link    -data DIR [-classes 05C10] [file]   link a file or stdin
//	nnexus policy  -data DIR -id N policy.txt  install a linking policy
//	nnexus relink  -data DIR                   re-link invalidated entries
//	nnexus stats   -data DIR                   print collection statistics
//	nnexus scheme  -data DIR -out msc.owl      export the scheme as OWL
//
// link, policy, relink and stats accept -server HOST:PORT to run against a
// live nnexusd instead of a local data directory; the other subcommands
// refuse it.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"nnexus"
	"nnexus/internal/corpus"
	"nnexus/internal/service"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd, args := os.Args[1], os.Args[2:]
	var err error
	switch cmd {
	case "import":
		err = runImport(args)
	case "link":
		err = runLink(args)
	case "policy":
		err = runPolicy(args)
	case "relink":
		err = runRelink(args)
	case "stats":
		err = runStats(args)
	case "scheme":
		err = runScheme(args)
	case "suggest":
		err = runSuggest(args)
	case "network":
		err = runNetwork(args)
	case "help", "-h", "--help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "nnexus: unknown command %q\n", cmd)
		usage()
		os.Exit(2)
	}
	if errors.Is(err, flag.ErrHelp) {
		return // -h: the subcommand's flag set printed its usage
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "nnexus:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `usage: nnexus <command> [flags] [args]

commands:
  import   ingest an OAI-style corpus dump into a data directory
  link     link a document (file or stdin) against the collection
  policy   install a linking policy on an entry
  relink   re-link all invalidated entries
  stats    print collection statistics
  scheme   export the classification scheme as OWL
  suggest  extract keyword candidates and overlink suspects
  network  materialize the semantic network (stats or Graphviz DOT)
`)
}

// commonFlags are shared by local-engine subcommands; the engine's are bound
// straight to the fields of its nnexus.Config. server is set only for the
// subcommands that can run against a live nnexusd (newServerFlags).
type commonFlags struct {
	fs     *flag.FlagSet
	cfg    nnexus.Config
	server *string
}

func newFlags(cmd string) *commonFlags {
	c := &commonFlags{fs: flag.NewFlagSet(cmd, flag.ContinueOnError)}
	c.fs.StringVar(&c.cfg.DataDir, "data", "", "data directory")
	c.fs.StringVar(&c.cfg.SchemeFile, "scheme", "sample", `classification scheme: "sample" or OWL file`)
	c.fs.StringVar(&c.cfg.SchemeName, "scheme-name", "msc", "scheme name")
	c.fs.IntVar(&c.cfg.SchemeBase, "base", nnexus.DefaultBaseWeight, "classification weight base")
	return c
}

// newServerFlags is newFlags plus -server.
func newServerFlags(cmd string) *commonFlags {
	c := newFlags(cmd)
	c.server = c.fs.String("server", "", "nnexusd address (use instead of -data)")
	return c
}

func runImport(args []string) error {
	c := newFlags("import")
	domain := c.fs.String("domain-url", "http://{domain}/?op=getobj&id={id}", "URL template for the imported domain ({domain} replaced)")
	priority := c.fs.Int("priority", 1, "collection priority of the imported domain")
	if err := c.fs.Parse(args); err != nil {
		return err
	}
	if c.fs.NArg() != 1 {
		return fmt.Errorf("import: need exactly one corpus XML file")
	}
	f, err := os.Open(c.fs.Arg(0))
	if err != nil {
		return err
	}
	dump, err := corpus.ImportOAI(f)
	f.Close()
	if err != nil {
		return err
	}
	engine, err := nnexus.New(c.cfg)
	if err != nil {
		return err
	}
	defer engine.Close()
	// The dump's domain is registered first, with a template derived from
	// its name.
	if err := engine.AddDomain(nnexus.Domain{
		Name:        dump.Domain,
		URLTemplate: strings.ReplaceAll(*domain, "{domain}", dump.Domain),
		Scheme:      dump.Scheme,
		Priority:    *priority,
	}); err != nil {
		return err
	}
	for _, e := range dump.Entries {
		if _, err := engine.AddEntry(e); err != nil {
			return err
		}
	}
	if err := engine.Compact(); err != nil {
		return err
	}
	fmt.Printf("imported %d entries into domain %s (%d concepts total)\n",
		len(dump.Entries), dump.Domain, engine.NumConcepts())
	return nil
}

func runLink(args []string) error {
	c := newServerFlags("link")
	classes := c.fs.String("classes", "", "comma-separated source classes")
	srcScheme := c.fs.String("source-scheme", "", "scheme of the source classes")
	mode := c.fs.String("mode", "", "pipeline mode: lexical, steered, steered+policies")
	format := c.fs.String("format", "html", "output format: html or markdown")
	if err := c.fs.Parse(args); err != nil {
		return err
	}
	text, err := readInput(c.fs.Args())
	if err != nil {
		return err
	}
	var cls []string
	if *classes != "" {
		for _, s := range strings.Split(*classes, ",") {
			cls = append(cls, strings.TrimSpace(s))
		}
	}

	if *c.server != "" {
		cli, err := nnexus.Dial(*c.server)
		if err != nil {
			return err
		}
		defer cli.Close()
		res, err := cli.LinkText(text, cls, *srcScheme, *mode, *format)
		if err != nil {
			return err
		}
		fmt.Println(res.Output)
		fmt.Fprintf(os.Stderr, "%d links created\n", len(res.Links))
		return nil
	}

	engine, err := nnexus.New(c.cfg)
	if err != nil {
		return err
	}
	defer engine.Close()
	opts, err := service.ParseLinkOptions(*mode, *format)
	if err != nil {
		return fmt.Errorf("link: %w", err)
	}
	opts.SourceClasses, opts.SourceScheme = cls, *srcScheme
	res, err := engine.LinkText(text, opts)
	if err != nil {
		return err
	}
	fmt.Println(res.Output)
	fmt.Fprintf(os.Stderr, "%d links created, %d matches skipped\n", len(res.Links), len(res.Skips))
	return nil
}

func runPolicy(args []string) error {
	c := newServerFlags("policy")
	id := c.fs.Int64("id", 0, "entry ID")
	if err := c.fs.Parse(args); err != nil {
		return err
	}
	text, err := readInput(c.fs.Args())
	if err != nil {
		return err
	}
	if *id == 0 {
		return fmt.Errorf("policy: -id is required")
	}
	if *c.server != "" {
		cli, err := nnexus.Dial(*c.server)
		if err != nil {
			return err
		}
		defer cli.Close()
		return cli.SetPolicy(*id, text)
	}
	engine, err := nnexus.New(c.cfg)
	if err != nil {
		return err
	}
	defer engine.Close()
	return engine.SetPolicy(*id, text)
}

func runRelink(args []string) error {
	c := newServerFlags("relink")
	if err := c.fs.Parse(args); err != nil {
		return err
	}
	if *c.server != "" {
		cli, err := nnexus.Dial(*c.server)
		if err != nil {
			return err
		}
		defer cli.Close()
		n, err := cli.Relink()
		if err != nil {
			return err
		}
		fmt.Printf("re-linked %d entries\n", n)
		return nil
	}
	engine, err := nnexus.New(c.cfg)
	if err != nil {
		return err
	}
	defer engine.Close()
	results, err := engine.RelinkInvalidated()
	if err != nil {
		return err
	}
	fmt.Printf("re-linked %d entries\n", len(results))
	return nil
}

func runStats(args []string) error {
	c := newServerFlags("stats")
	prom := c.fs.Bool("prometheus", false, "dump full telemetry in Prometheus text format instead of a summary")
	if err := c.fs.Parse(args); err != nil {
		return err
	}
	if *c.server != "" {
		cli, err := nnexus.Dial(*c.server)
		if err != nil {
			return err
		}
		defer cli.Close()
		s, err := cli.Stats()
		if err != nil {
			return err
		}
		fmt.Printf("entries: %d\nconcepts: %d\ndomains: %d\ninvalidated: %d\n",
			s.Entries, s.Concepts, s.Domains, s.Invalidated)
		// Telemetry counters, when the server reports them.
		if s.TextsLinked > 0 || s.LinksCreated > 0 || s.CacheHits > 0 || s.CacheMisses > 0 {
			fmt.Printf("texts linked: %d\nlinks created: %d\ncache: %d hits / %d misses\n",
				s.TextsLinked, s.LinksCreated, s.CacheHits, s.CacheMisses)
		}
		return nil
	}
	engine, err := nnexus.New(c.cfg)
	if err != nil {
		return err
	}
	defer engine.Close()
	if *prom {
		return engine.WriteMetrics(os.Stdout)
	}
	fmt.Printf("entries: %d\nconcepts: %d\ndomains: %s\ninvalidated: %d\n",
		engine.NumEntries(), engine.NumConcepts(),
		strings.Join(engine.Domains(), ", "), len(engine.Invalidated()))
	printTelemetrySummary(engine.TelemetrySnapshot())
	return nil
}

// printTelemetrySummary prints the interesting scalar telemetry of a local
// engine. A freshly opened data directory has no runtime traffic, so only
// collection-shape gauges are usually non-zero here; the full registry is
// available with -prometheus or from a live daemon's /metrics.
func printTelemetrySummary(snap map[string]interface{}) {
	if snap == nil {
		return
	}
	num := func(name string) float64 {
		v, _ := snap[name].(float64)
		return v
	}
	fmt.Printf("invalidation index keys: %.0f\n", num("nnexus_invalidation_index_keys"))
	fmt.Printf("rendered cache: %.0f entries, %.0f hits / %.0f misses\n",
		num("nnexus_rendered_cache_entries"),
		num("nnexus_rendered_cache_hits_total"),
		num("nnexus_rendered_cache_misses_total"))
}

func runScheme(args []string) error {
	c := newFlags("scheme")
	out := c.fs.String("out", "", "output OWL file (default stdout)")
	if err := c.fs.Parse(args); err != nil {
		return err
	}
	engine, err := nnexus.New(c.cfg)
	if err != nil {
		return err
	}
	defer engine.Close()
	w := io.Writer(os.Stdout)
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	return nnexus.SaveSchemeOWL(w, engine.Scheme())
}

func runSuggest(args []string) error {
	c := newFlags("suggest")
	max := c.fs.Int("max", 15, "maximum keywords to suggest")
	suspects := c.fs.Bool("suspects", false, "list overlink suspects among the collection's concepts instead")
	threshold := c.fs.Float64("threshold", 0.006, "document-frequency fraction above which a concept is an overlink suspect")
	if err := c.fs.Parse(args); err != nil {
		return err
	}
	engine, err := nnexus.New(c.cfg)
	if err != nil {
		return err
	}
	defer engine.Close()
	extractor := nnexus.NewKeywordExtractor()
	var labels []string
	for _, id := range engine.Entries() {
		entry, ok := engine.Entry(id)
		if !ok {
			continue
		}
		extractor.AddDocument(entry.Body)
		labels = append(labels, entry.Labels()...)
	}
	if *suspects {
		out := extractor.OverlinkSuspects(labels, *threshold)
		if len(out) == 0 {
			fmt.Println("no overlink suspects found")
			return nil
		}
		fmt.Println("concept labels that likely need linking policies:")
		for _, label := range out {
			fmt.Printf("  %-30s in %d/%d entries\n", label,
				extractor.DocFrequency(label), extractor.Docs())
		}
		return nil
	}
	text, err := readInput(c.fs.Args())
	if err != nil {
		return err
	}
	for _, kw := range extractor.Keywords(text, *max) {
		fmt.Printf("%8.2f  %s (×%d)\n", kw.Score, kw.Label, kw.Count)
	}
	return nil
}

func runNetwork(args []string) error {
	c := newFlags("network")
	dot := c.fs.String("dot", "", "write the network as Graphviz DOT to this file")
	if err := c.fs.Parse(args); err != nil {
		return err
	}
	engine, err := nnexus.New(c.cfg)
	if err != nil {
		return err
	}
	defer engine.Close()
	g, err := engine.SemanticNetwork()
	if err != nil {
		return err
	}
	if *dot != "" {
		f, err := os.Create(*dot)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := g.WriteDOT(f, "nnexus"); err != nil {
			return err
		}
		fmt.Printf("wrote %s (%d nodes, %d edges)\n", *dot, g.Nodes(), g.Edges())
		return nil
	}
	sample := 1
	if g.Nodes() > 2000 {
		sample = g.Nodes() / 500
	}
	s := g.Stats(sample)
	fmt.Printf("nodes: %d\nedges: %d\navg out-degree: %.1f\n", s.Nodes, s.Edges, s.AvgOutDegree)
	fmt.Printf("largest component: %d (%d components, %d isolated)\n",
		s.LargestComponent, s.Components, s.Isolated)
	fmt.Printf("avg reachable: %.0f\n", s.AvgReachable)
	fmt.Println("most-cited entries:")
	for _, id := range g.TopHubs(10) {
		fmt.Printf("  %6d  %-30s ← %d links\n", id, g.Title(id), g.InDegree(id))
	}
	return nil
}

// readInput reads the single file argument, or stdin when absent.
func readInput(args []string) (string, error) {
	switch len(args) {
	case 0:
		data, err := io.ReadAll(os.Stdin)
		return string(data), err
	case 1:
		data, err := os.ReadFile(args[0])
		return string(data), err
	default:
		return "", fmt.Errorf("expected at most one input file")
	}
}
