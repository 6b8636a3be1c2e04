// Command nnexus-bench regenerates every table and figure of the paper's
// evaluation (§3) on the synthetic PlanetMath-scale corpus:
//
//	nnexus-bench -exp table1         Table 1: overlinking before/after policies
//	nnexus-bench -exp table2         Table 2: linking quality per configuration
//	nnexus-bench -exp table3         Table 3: scalability sweep
//	nnexus-bench -exp fig8           Fig 8: time-per-link series
//	nnexus-bench -exp fig9           Fig 9: lecture-notes linking demo
//	nnexus-bench -exp invalidation   §2.5: invalidation-index ablation
//	nnexus-bench -exp maintenance    §1.2: manual vs automatic maintenance
//	nnexus-bench -exp autopolicy     §5: automatic policy suggestion
//	nnexus-bench -exp semiauto       §1.2: semiautomatic (wiki) vs automatic
//	nnexus-bench -exp network        §1.3: the resulting semantic network
//	nnexus-bench -exp readscale      read QPS: single node vs 1 primary + 2 read replicas
//	nnexus-bench -exp openloop       open-loop (coordinated-omission-free) latency-vs-offered-load sweep with knee detection
//	nnexus-bench -exp all            everything above
//
// The last two boot live servers and drive them through internal/loadgen:
// readscale with its closed loop (loadgen.Closed), openloop with its open
// loop (loadgen.Run); every percentile they
// print is read off a loadgen.Hist. -exp openloop exits non-zero when not
// even the lowest rate of its -rates ladder meets the -slo, which is the
// check `make loadgate` runs.
//
// -entries sets the full corpus size (default 7132, the paper's largest
// subset); -seed changes the deterministic workload.
package main

import (
	"cmp"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"nnexus"
	"nnexus/internal/experiments"
	"nnexus/internal/workload"
)

func main() {
	var (
		exp     = flag.String("exp", "all", "experiment to run (table1, table2, table3, fig8, fig9, invalidation, maintenance, autopolicy, semiauto, network, readscale, openloop, all)")
		entries = flag.Int("entries", 7132, "full corpus size")
		seed    = flag.Int64("seed", 20090601, "workload seed")
		sample2 = flag.Int("sample", 50, "Table 2 sample size (paper: 50)")
		conns   = flag.Int("conns", 4, "openloop experiment: client connections")
		dur     = flag.Duration("duration", 2*time.Second, "readscale/openloop experiments: measurement window per configuration")
		rtt     = flag.Duration("rtt", 0, "readscale/openloop experiments: simulated round-trip time per node (0 = the experiment's own: 10ms readscale, 4ms openloop)")
		olRates = flag.String("rates", "150,300,600,1200,2400,4800", "openloop experiment: comma-separated offered-load ladder (req/s)")
		olSLO   = flag.Duration("slo", 25*time.Millisecond, "openloop experiment: intended-latency p99 SLO for knee detection")
		olWin   = flag.Int("window", 8, "openloop experiment: pipeline window per connection")
		olDiur  = flag.Bool("diurnal", false, "openloop experiment: use diurnal (sinusoidal) arrivals instead of Poisson")
		olStorm = flag.Bool("storm", false, "openloop experiment: fire an invalidation storm mid-step")
		olKill  = flag.Bool("kill-replica", false, "openloop experiment: drop and stall a replica's link mid-step")
		olKillP = flag.Bool("kill-primary", false, "openloop experiment: kill the primary mid-window on a 3-node election-enabled cluster and measure the availability gap")
	)
	flag.Parse()

	p := workload.DefaultParams(*entries)
	p.Seed = *seed
	fmt.Printf("generating synthetic corpus: %d entries, seed %d ...\n", p.Entries, p.Seed)
	start := time.Now()
	c, err := workload.Generate(p)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("generated in %v (%d homonym labels, %d common-word concepts)\n\n",
		time.Since(start).Round(time.Millisecond), len(c.HomonymSenses), len(c.CommonDefiners))

	ran := false
	run := func(name string, fn func(*workload.Corpus) error) {
		if *exp != "all" && *exp != name {
			return
		}
		ran = true
		if err := fn(c); err != nil {
			fatal(fmt.Errorf("%s: %w", name, err))
		}
		fmt.Println()
	}
	run("table1", runTable1)
	run("table2", func(c *workload.Corpus) error { return runTable2(c, *sample2) })
	run("table3", runTable3)
	run("fig8", runFig8)
	run("fig9", runFig9)
	run("invalidation", runInvalidation)
	run("maintenance", runMaintenance)
	run("autopolicy", runAutoPolicy)
	run("semiauto", runSemiAuto)
	run("network", runNetwork)
	run("readscale", func(c *workload.Corpus) error { return runReadScale(c, *dur, cmp.Or(*rtt, 10*time.Millisecond)) })
	run("openloop", func(c *workload.Corpus) error {
		return runOpenLoop(c, openLoopOptions{
			rates:    *olRates,
			duration: *dur,
			rtt:      cmp.Or(*rtt, 4*time.Millisecond),
			conns:    *conns,
			window:   *olWin,
			slo:      *olSLO,
			seed:     *seed,
			diurnal:  *olDiur,
			storm:    *olStorm,
			killRep:  *olKill,
			killPrim: *olKillP,
		})
	})
	// A retired or misspelt experiment (-exp tenantiso, say) must not pass
	// as a run.
	if !ran {
		fatal(fmt.Errorf("unknown experiment %q", *exp))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "nnexus-bench:", err)
	os.Exit(1)
}

func runTable1(c *workload.Corpus) error {
	fmt.Println("Table 1: overlinking statistics before and after updating the")
	fmt.Println("linking policies for the offending entries of 5 random entries")
	fmt.Println("in a random subset of 20")
	fmt.Println(strings.Repeat("-", 72))
	res, err := experiments.RunTable1(c, 20, 5, c.Params.Seed+7)
	if err != nil {
		return err
	}
	fmt.Printf("%-22s %8s %10s %10s %11s\n", "", "links", "mislinks", "overlinks", "precision")
	fmt.Printf("%-22s %8d %9.1f%% %9.1f%% %10.1f%%   (paper: 13.4%% / 11.5%%)\n",
		"before policies", res.Before.Created,
		100*res.Before.MislinkRate(), 100*res.Before.OverlinkRate(), 100*res.Before.Precision())
	fmt.Printf("%-22s %8d %9.1f%% %9.1f%% %10.1f%%   (paper:  6.9%% /  4.8%%)\n",
		"after policies", res.After.Created,
		100*res.After.MislinkRate(), 100*res.After.OverlinkRate(), 100*res.After.Precision())
	fmt.Printf("policies added to %d target objects (paper: 8)\n", res.PolicyTargets)
	return nil
}

func runTable2(c *workload.Corpus, sample int) error {
	fmt.Printf("Table 2: automatic linking statistics for the corpus, estimated\n")
	fmt.Printf("from a sample of %d random entries (paper: 50)\n", sample)
	fmt.Println(strings.Repeat("-", 72))
	rows, err := experiments.RunTable2(c, sample, c.Params.Seed+29)
	if err != nil {
		return err
	}
	paper := []string{
		"(paper: precision falls with collection growth)",
		"(paper: ~12% mislinks, 7.9% overlinks)",
		"(paper: precision >92%)",
	}
	fmt.Printf("%-34s %7s %9s %10s %10s\n", "configuration", "links", "mislinks", "overlinks", "precision")
	for i, r := range rows {
		fmt.Printf("%-34s %7d %8.1f%% %9.1f%% %9.1f%%  %s\n",
			r.Config, r.Counts.Created,
			100*r.Counts.MislinkRate(), 100*r.Counts.OverlinkRate(),
			100*r.Counts.Precision(), paper[i])
	}
	fmt.Printf("link recall: %.1f%% (design goal: perfect recall)\n", 100*rows[2].Counts.Recall())
	return nil
}

var sweepSizes = []int{200, 400, 800, 1600, 3200, 7132}

func sizesFor(c *workload.Corpus) []int {
	var out []int
	for _, s := range sweepSizes {
		if s <= len(c.Entries) {
			out = append(out, s)
		}
	}
	if len(out) == 0 || out[len(out)-1] != len(c.Entries) {
		out = append(out, len(c.Entries))
	}
	return out
}

func runTable3(c *workload.Corpus) error {
	fmt.Println("Table 3: linking random subsets of the corpus of increasing size")
	fmt.Println(strings.Repeat("-", 72))
	rows, err := experiments.RunTable3(c, sizesFor(c))
	if err != nil {
		return err
	}
	fmt.Printf("%10s %10s %9s %12s %12s %14s\n",
		"entries", "concepts", "links", "index time", "link time", "time per link")
	for _, r := range rows {
		fmt.Printf("%10d %10d %9d %12v %12v %14v\n",
			r.CorpusSize, r.Concepts, r.Links,
			r.IndexTime.Round(time.Millisecond),
			r.LinkTime.Round(time.Millisecond),
			r.TimePerLink.Round(time.Microsecond))
	}
	fmt.Println("(paper: time per link falls, then hovers around a constant)")
	return nil
}

func runFig8(c *workload.Corpus) error {
	fmt.Println("Fig 8: time-per-link for progressively larger corpora")
	fmt.Println(strings.Repeat("-", 72))
	rows, err := experiments.RunTable3(c, sizesFor(c))
	if err != nil {
		return err
	}
	var maxPerLink time.Duration
	for _, r := range rows {
		if r.TimePerLink > maxPerLink {
			maxPerLink = r.TimePerLink
		}
	}
	for _, r := range rows {
		bar := 1
		if maxPerLink > 0 {
			bar = int(50 * r.TimePerLink / maxPerLink)
			if bar < 1 {
				bar = 1
			}
		}
		fmt.Printf("%7d | %-52s %v\n", r.CorpusSize, strings.Repeat("#", bar),
			r.TimePerLink.Round(time.Microsecond))
	}
	fmt.Println("(sublinear: the curve flattens as overhead amortizes)")
	return nil
}

func runInvalidation(c *workload.Corpus) error {
	fmt.Println("Invalidation-index ablation (§2.5 / Fig 6): entries invalidated")
	fmt.Println("when each multi-word concept label is (re)defined")
	fmt.Println(strings.Repeat("-", 72))
	rows, err := experiments.RunInvalidation(c)
	if err != nil {
		return err
	}
	for _, res := range rows {
		fmt.Printf("%s:\n", res.Config)
		fmt.Printf("  labels probed:              %d\n", res.LabelsProbed)
		fmt.Printf("  phrase-index invalidations: %d (%.1f per label)\n",
			res.PhraseInvalidations, float64(res.PhraseInvalidations)/float64(res.LabelsProbed))
		fmt.Printf("  word-index invalidations:   %d (%.1f per label)\n",
			res.WordInvalidations, float64(res.WordInvalidations)/float64(res.LabelsProbed))
		fmt.Printf("  savings:                    %.1f× fewer invalidations\n",
			float64(res.WordInvalidations)/float64(res.PhraseInvalidations))
		fmt.Printf("  index size vs word index:   %.2f× postings (%d word / %d phrase keys)\n",
			res.SizeRatio, res.WordKeys, res.PhraseKeys)
	}
	fmt.Println("(paper: adaptive phrase index ≈2× a word index, with far fewer")
	fmt.Println(" false invalidations than word-based invalidation)")
	return nil
}

func runMaintenance(c *workload.Corpus) error {
	fmt.Println("Manual vs automatic link maintenance (§1.2): cumulative entries")
	fmt.Println("that must be re-inspected as the corpus grows one entry at a time")
	fmt.Println(strings.Repeat("-", 72))
	rows, err := experiments.RunMaintenance(c, sizesFor(c))
	if err != nil {
		return err
	}
	fmt.Printf("%10s %22s %22s %8s\n", "entries", "manual re-inspections", "auto invalidations", "ratio")
	for _, r := range rows {
		ratio := float64(r.ManualInspections) / float64(r.AutoInvalidations+1)
		fmt.Printf("%10d %22d %22d %7.1f×\n",
			r.CorpusSize, r.ManualInspections, r.AutoInvalidations, ratio)
	}
	fmt.Println("(paper: manual upkeep is an O(n²)-scale problem)")
	return nil
}

func runAutoPolicy(c *workload.Corpus) error {
	fmt.Println("Automatic policy suggestion (§5 future work): precision with")
	fmt.Println("no policies vs hand-written policies vs auto-detected policies")
	fmt.Println(strings.Repeat("-", 72))
	res, err := experiments.RunAutoPolicy(c, 100, c.Params.Seed+31, 0.006)
	if err != nil {
		return err
	}
	fmt.Printf("detector flagged %d labels; %d are true common-word culprits of %d\n",
		res.Suspects, res.TruePositives, c.Params.CommonConcepts)
	fmt.Printf("%-28s %9s %10s %11s\n", "configuration", "links", "overlinks", "precision")
	rows := []struct {
		name string
		c    interface {
			Precision() float64
			OverlinkRate() float64
		}
		links int
	}{
		{"steering, no policies", res.NoPolicies, res.NoPolicies.Created},
		{"auto-detected policies", res.AutoPolicies, res.AutoPolicies.Created},
		{"hand-written policies", res.ManualPolicies, res.ManualPolicies.Created},
	}
	for _, r := range rows {
		fmt.Printf("%-28s %9d %9.1f%% %10.1f%%\n",
			r.name, r.links, 100*r.c.OverlinkRate(), 100*r.c.Precision())
	}
	return nil
}

func runNetwork(c *workload.Corpus) error {
	fmt.Println("Semantic network (§1.3: 'a fully connected network of articles')")
	fmt.Println(strings.Repeat("-", 72))
	sample := 1
	if len(c.Entries) > 2000 {
		sample = len(c.Entries) / 500 // keep the reachability BFS affordable
	}
	g, stats, err := experiments.RunNetwork(c, sample)
	if err != nil {
		return err
	}
	fmt.Printf("nodes: %d   edges: %d   avg out-degree: %.1f\n",
		stats.Nodes, stats.Edges, stats.AvgOutDegree)
	fmt.Printf("weakly connected: largest component %d/%d (%.1f%%), %d components, %d isolated\n",
		stats.LargestComponent, stats.Nodes,
		100*float64(stats.LargestComponent)/float64(stats.Nodes),
		stats.Components, stats.Isolated)
	fmt.Printf("avg entries reachable by following links: %.0f (%.1f%% of corpus)\n",
		stats.AvgReachable, 100*stats.AvgReachable/float64(stats.Nodes))
	fmt.Println("most-cited entries (canonical definitions):")
	for _, id := range g.TopHubs(5) {
		fmt.Printf("  %-28s ← %d links\n", g.Title(id), g.InDegree(id))
	}
	return nil
}

func runSemiAuto(c *workload.Corpus) error {
	fmt.Println("Semiautomatic (Mediawiki-style) vs automatic linking (§1.2),")
	fmt.Println("on a 60-entry sample with conscientious wiki authors")
	fmt.Println(strings.Repeat("-", 72))
	res, err := experiments.RunSemiAuto(c, 60, c.Params.Seed+41)
	if err != nil {
		return err
	}
	fmt.Printf("semiautomatic: %d author markup actions → %d resolved, %d broken, %d disambiguation hops\n",
		res.SemiAuto.AuthorActions, res.SemiAuto.ResolvedLinks,
		res.SemiAuto.BrokenLinks, res.SemiAuto.DisambiguationHops)
	fmt.Printf("automatic:     0 author actions → %d links (%d homonyms resolved by steering)\n",
		res.AutoLinks, res.AutoAmbiguous)
	fmt.Println("(the paper: the wiki 'should know which concepts are present and")
	fmt.Println(" how they should be cited'; disambiguation nodes add an extra hop)")
	return nil
}

// runFig9 reproduces the lecture-notes demo: a document with no markup is
// linked against two corpora (PlanetMath-style and MathWorld-style) with a
// collection priority deciding ties.
func runFig9(c *workload.Corpus) error {
	fmt.Println("Fig 9: automatically linked lecture notes (PlanetMath + MathWorld,")
	fmt.Println("collection priority decides when both define a concept)")
	fmt.Println(strings.Repeat("-", 72))
	e, err := nnexus.New(nnexus.Config{SchemeFile: "sample", Domains: []nnexus.Domain{
		{Name: "planetmath.org", URLTemplate: "http://planetmath.org/?op=getobj&id={id}", Scheme: "msc", Priority: 1},
		{Name: "mathworld.wolfram.com", URLTemplate: "http://mathworld.wolfram.com/{id}.html", Scheme: "msc", Priority: 2},
	}})
	if err != nil {
		return err
	}
	defer e.Close()
	pm := []nnexus.Entry{
		{Title: "random variable", Classes: []string{"11Axx"}},
		{Title: "probability space", Classes: []string{"11Axx"}},
		{Title: "expectation", Concepts: []string{"expected value"}, Classes: []string{"11Axx"}},
	}
	mw := []nnexus.Entry{
		{ExternalID: "RandomVariable", Title: "random variable", Classes: []string{"11Axx"}},
		{ExternalID: "Variance", Title: "variance", Classes: []string{"11Axx"}},
		{ExternalID: "Independence", Title: "independent", Concepts: []string{"independence"}, Classes: []string{"03Exx"}},
	}
	for i := range pm {
		pm[i].Domain = "planetmath.org"
		if _, err := e.AddEntry(&pm[i]); err != nil {
			return err
		}
	}
	for i := range mw {
		mw[i].Domain = "mathworld.wolfram.com"
		if _, err := e.AddEntry(&mw[i]); err != nil {
			return err
		}
	}
	notes := "A random variable on a probability space has an expected value, " +
		"and the variance of a sum of independent random variables is the sum " +
		"of their variances."
	fmt.Println("before:")
	fmt.Println("  " + notes)
	res, err := e.LinkText(notes, nnexus.LinkOptions{SourceClasses: []string{"11Axx"}})
	if err != nil {
		return err
	}
	fmt.Println("after:")
	fmt.Println("  " + res.Output)
	fmt.Println("links:")
	for _, l := range res.Links {
		fmt.Printf("  %-18s → %-22s %s\n", l.Text, l.TargetDomain, l.URL)
	}
	return nil
}
