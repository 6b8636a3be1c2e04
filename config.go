package nnexus

import (
	"cmp"
	"encoding/xml"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"nnexus/internal/core"
	"nnexus/internal/tenant"
)

// Config is the one document that configures a node (paper §3.1: "NNexus has
// XML configuration files that provide NNexus with information about
// supported domains, how to link to an entry in a specific domain, and
// classification scheme information"). The XML file LoadConfig reads, every
// nnexusd flag (Flags) and an embedding program fill in this same struct; New
// validates it once, before it opens anything.
//
// The file looks like:
//
//	<nnexus>
//	  <server addr="127.0.0.1:7070" http="127.0.0.1:8080" data="/var/lib/nnexus" max-active="256"/>
//	  <replication repl-primary="true" quorum-acks="1" quorum-timeout="2s"/>
//	  <tenants tenant-config="tenants.json"/>
//	  <scheme name="msc" base="10" file="msc.owl"/>
//	  <domain name="planetmath.org" priority="1" scheme="msc">
//	    <urltemplate>http://planetmath.org/?op=getobj&amp;id={id}</urltemplate>
//	  </domain>
//	  <domain name="mathworld.wolfram.com" priority="2" scheme="msc">
//	    <urltemplate>http://mathworld.wolfram.com/{id}.html</urltemplate>
//	  </domain>
//	  <mapper from="loc" to="msc">
//	    <rule from="QA166"><to>05Cxx</to></rule>
//	    <rule from="QA*"><to>00-XX</to><to>05-XX</to></rule>
//	  </mapper>
//	</nnexus>
//
// An attribute of <server>, <replication> or <tenants> is a flag of Flags by
// its name, parsed as that flag parses; the three elements only group them
// for the reader. <scheme> names a built-in ("sample") or an OWL file,
// resolved relative to the configuration file's directory.
type Config struct {
	// Scheme is the canonical classification scheme used for link
	// steering. When nil, the scheme is built from SchemeFile; one of the
	// two is required.
	Scheme *Scheme
	// SchemeFile is "sample" for the built-in MSC fixture or the path of an
	// OWL document, read under SchemeName (default "msc") with weight base
	// SchemeBase (default DefaultBaseWeight; 1 = non-weighted).
	SchemeFile string
	SchemeName string
	SchemeBase int
	// Domains are registered at boot: one the store already replayed
	// unchanged appends nothing, and a follower registers none (its domains
	// arrive with its primary's WAL).
	Domains []Domain
	// Mappers are the ontology mappers installed at boot.
	Mappers []*Mapper
	// DataDir persists the engine's tables (entries, domains, policies,
	// invalidation flags) under this directory; empty runs memory-only.
	DataDir string
	// SyncWrites makes every persisted mutation fsync before returning.
	SyncWrites bool
	// Format is the default output format (HTML).
	Format Format
	// DefaultCorpus is the corpus namespace entries and link requests fall
	// into when they name none. Empty means DefaultCorpusName ("default").
	// Single-corpus deployments never need to set it.
	DefaultCorpus string
	// LaTeX converts entry bodies and linked text from LaTeX markup to
	// plain text before scanning (Noosphere entries are written in TeX).
	LaTeX bool
	// CompileAutomaton runs the background concept-map compiler: published
	// snapshots are compiled into an immutable Aho-Corasick automaton that
	// scans text in one allocation-free pass, and the engine serves scans
	// from it whenever it is current (falling back to the chained-hash
	// structure while it trails a write burst). Results are identical
	// either way; this trades a little background CPU after writes for
	// several-fold match-stage throughput.
	CompileAutomaton bool

	// ReplicationPrimary makes this node a replication primary: the store
	// retains its WAL record log and Serve answers the replSubscribe /
	// replSnapshot / replAck exchanges followers use to mirror it. A node
	// without peers (no ClusterPeers) stays the primary for good. Requires
	// DataDir; mutually exclusive with FollowPrimary.
	ReplicationPrimary bool
	// FollowPrimary makes this node a read replica of the primary at this
	// address ("host:port" of its XML-protocol listener): a background loop
	// streams the primary's WAL into the local store and engine, Serve
	// answers the full read surface, and writes are rejected with a typed
	// notPrimary redirect naming the primary. A node without peers follows
	// that address for good, and its store retains no record log. Requires
	// DataDir (the replica's durable state, which replays across restarts).
	FollowPrimary string
	// ReplicaName identifies this follower in replAck reports and the
	// primary's per-follower lag gauge (default: hostname).
	ReplicaName string
	// ClusterPeers enables automatic failover: the XML-protocol addresses of
	// the OTHER nodes in the cluster (not this node's own). A node with peers
	// stands, votes and probes where a node without peers only keeps its
	// role: followers that lose contact with the primary beyond the election
	// timeout elect the freshest of themselves, the winner promotes to a
	// writable primary, and a deposed primary is fenced by epoch on its
	// first contact with the new regime. Requires
	// DataDir, AdvertiseAddr, and exactly one of ReplicationPrimary (this
	// node boots as the leader) or FollowPrimary (this node boots following
	// that address).
	ClusterPeers []string
	// AdvertiseAddr is this node's own XML-protocol address as its peers
	// dial it ("host:port"); it names the node in vote requests and leader
	// announcements. Required with ClusterPeers.
	AdvertiseAddr string
	// ElectionTimeout is how long a follower tolerates primary silence
	// before standing for election (default replication.DefaultElectionTimeout;
	// actual arming is jittered to de-synchronize candidates).
	ElectionTimeout time.Duration
	// QuorumAcks makes writes quorum-acknowledged on every door: a mutating
	// request is answered only after this many followers have confirmed the
	// write's WAL offset durable (0, the default, acknowledges on local
	// durability alone). A write that cannot gather the quorum within
	// QuorumTimeout answers a typed quorumUnavailable error — the write IS
	// durable on the primary, but its replication guarantee is not yet met.
	// Requires a primary-capable role (ReplicationPrimary or ClusterPeers);
	// with ClusterPeers, New enforces the failover-durability floor
	// QuorumAcks+1+majority > N (e.g. at least 1 for 3 nodes, 2 for 5), the
	// smallest k at which a quorum-acked write provably survives any
	// election the cluster can hold.
	QuorumAcks int
	// QuorumTimeout bounds the quorum wait (default 5s).
	QuorumTimeout time.Duration

	// TenantFile is the path to a tenant-policy JSON document: per-corpus
	// rate limits, entry/byte quotas and default cross-corpus link targets,
	// enforced before execution on every door. Engine.ReloadTenants re-reads
	// it live.
	TenantFile string
	// Tenants gates the node with an in-memory registry instead of a
	// TenantFile (tests, embedders that change policy in process).
	// TenantFile, when set, takes precedence.
	Tenants *TenantRegistry

	// MaxConns caps concurrently served TCP connections; excess connections
	// are closed on accept (0 = unlimited).
	MaxConns int
	// MaxActive bounds the requests the node runs at once, socket and /api
	// together; excess requests are shed before they run — a typed
	// "overloaded" error on the socket, 503 + Retry-After over HTTP
	// (0 = unlimited). Replication, election and liveness traffic, the
	// probes and /metrics are never shed.
	MaxActive int

	// Listen, HTTP, Pprof and DrainTimeout are the hosting process's: the
	// address it passes to Serve, the address it mounts HTTPHandler on,
	// whether it adds /debug/pprof/ there, and how long its shutdown waits
	// for in-flight requests. nnexusd reads them; New does not.
	Listen       string
	HTTP         string
	Pprof        bool
	DrainTimeout time.Duration
}

// Flags registers every setting a process can be given by name — the nnexusd
// command line, and by the same names the attributes of the configuration
// file — on fs, each bound to its field, and sets those fields to the flags'
// defaults.
func (c *Config) Flags(fs *flag.FlagSet) {
	fs.StringVar(&c.Listen, "addr", "127.0.0.1:7070", "listen address")
	fs.StringVar(&c.HTTP, "http", "", "also serve the HTTP API on this address (e.g. 127.0.0.1:8080)")
	fs.BoolVar(&c.Pprof, "pprof", false, "expose net/http/pprof profiling handlers under /debug/pprof/ on the HTTP address")
	fs.StringVar(&c.DataDir, "data", "", "data directory (empty = memory only)")
	fs.BoolVar(&c.SyncWrites, "sync", false, "fsync every write")
	fs.StringVar(&c.SchemeFile, "scheme", "sample", `classification scheme: "sample" or a path to an OWL file`)
	fs.StringVar(&c.SchemeName, "scheme-name", "msc", "classification scheme name")
	fs.IntVar(&c.SchemeBase, "base", DefaultBaseWeight, "classification weight base (1 = non-weighted)")
	fs.StringVar(&c.DefaultCorpus, "default-corpus", "", `corpus namespace for entries and requests that name none (default "default")`)
	fs.BoolVar(&c.CompileAutomaton, "compile-automaton", true, "compile concept-map snapshots into an Aho-Corasick automaton in the background for one-pass, allocation-free scanning (fallback scan used while it trails writes)")

	fs.DurationVar(&c.DrainTimeout, "drain-timeout", 30*time.Second, "how long a SIGTERM drain may wait for in-flight requests before force-closing")
	fs.IntVar(&c.MaxConns, "max-conns", 0, "cap on concurrent TCP connections (0 = unlimited)")
	fs.IntVar(&c.MaxActive, "max-active", 0, "cap on requests the node runs at once, socket and HTTP together, before load shedding (0 = unlimited)")

	fs.BoolVar(&c.ReplicationPrimary, "repl-primary", false, "serve as a replication primary: retain the WAL record log and answer follower subscriptions (requires -data)")
	fs.StringVar(&c.FollowPrimary, "follow", "", "run as a read replica of the primary at this XML-protocol address (requires -data; writes answer a notPrimary redirect)")
	fs.StringVar(&c.ReplicaName, "replica-name", "", "name this follower reports for lag accounting (default: hostname)")
	c.ClusterPeers = nil
	fs.Func("peers", "comma-separated XML-protocol addresses of the OTHER cluster nodes; enables automatic failover (requires -advertise, -data, and -repl-primary or -follow for the initial role)", func(list string) error {
		c.ClusterPeers = strings.FieldsFunc(list, func(r rune) bool { return r == ',' || r == ' ' })
		return nil
	})
	fs.StringVar(&c.AdvertiseAddr, "advertise", "", "this node's own address as its peers dial it (required with -peers)")
	fs.DurationVar(&c.ElectionTimeout, "election-timeout", 0, "primary-silence tolerance before a follower stands for election (0 = library default)")
	fs.IntVar(&c.QuorumAcks, "quorum-acks", 0, "acknowledge writes only after this many followers confirm the WAL offset durable (0 = local durability only)")
	fs.DurationVar(&c.QuorumTimeout, "quorum-timeout", 0, "bound on the quorum wait before a write answers quorumUnavailable (0 = 5s)")

	fs.StringVar(&c.TenantFile, "tenant-config", "", "tenant-policy JSON file: per-corpus rate limits, entry/byte quotas, and default cross-corpus link targets; SIGHUP re-reads it live")
}

// ParseArgs reads a node's command line: every flag of Flags, plus -config
// naming a configuration file. A setting takes its value from the command
// line if the flag is given there, else from the file, else the flag's
// default. The file need not stand alone — what it leaves out the command
// line may say — so it is New that judges the result.
func ParseArgs(name string, args []string) (Config, error) {
	var c Config
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	c.Flags(fs)
	path := fs.String("config", "", "XML configuration file; a flag given on the command line overrides it")
	if err := fs.Parse(args); err != nil {
		return c, err
	}
	if *path != "" {
		// The file replaces the defaults under the flag set's feet, and the
		// command line is parsed over it once more.
		var err error
		if c, err = loadFile(*path); err != nil {
			return c, err
		}
		return c, fs.Parse(args)
	}
	return c, nil
}

// LoadConfig reads an XML configuration file over the defaults of Flags and
// validates the result as New validates it.
func LoadConfig(path string) (Config, error) {
	c, err := loadFile(path)
	if err == nil {
		_, err = c.validate()
	}
	return c, err
}

// attrBag is an element whose attributes are flags.
type attrBag struct {
	Attrs []xml.Attr `xml:",any,attr"`
}

// loadFile decodes a configuration file over the defaults of Flags.
func loadFile(path string) (Config, error) {
	var c Config
	fail := func(err error) (Config, error) { return c, fmt.Errorf("nnexus: config %s: %w", path, err) }
	data, err := os.ReadFile(path)
	if err != nil {
		return c, fmt.Errorf("nnexus: config: %w", err)
	}
	var doc struct {
		XMLName     xml.Name `xml:"nnexus"`
		Server      attrBag  `xml:"server"`
		Replication attrBag  `xml:"replication"`
		Tenants     attrBag  `xml:"tenants"`
		Scheme      attrBag  `xml:"scheme"`
		Domains     []struct {
			Name        string `xml:"name,attr"`
			Priority    int    `xml:"priority,attr"`
			Scheme      string `xml:"scheme,attr"`
			URLTemplate string `xml:"urltemplate"`
		} `xml:"domain"`
		Mappers []struct {
			From  string `xml:"from,attr"`
			To    string `xml:"to,attr"`
			Rules []struct {
				From string   `xml:"from,attr"`
				To   []string `xml:"to"`
			} `xml:"rule"`
		} `xml:"mapper"`
		// Unknown is every child element the fields above do not read.
		Unknown []struct {
			XMLName xml.Name
		} `xml:",any"`
	}
	if err := xml.Unmarshal(data, &doc); err != nil {
		return fail(fmt.Errorf("parse: %w", err))
	}
	if len(doc.Unknown) > 0 {
		return fail(fmt.Errorf("unknown element <%s>", doc.Unknown[0].XMLName.Local))
	}

	fs := flag.NewFlagSet(path, flag.ContinueOnError)
	c.Flags(fs)
	for _, el := range []struct {
		name string
		attrBag
	}{{"server", doc.Server}, {"replication", doc.Replication}, {"tenants", doc.Tenants}, {"scheme", doc.Scheme}} {
		for _, a := range el.Attrs {
			name, value := a.Name.Local, a.Value
			if el.name == "scheme" {
				// <scheme> spells the three scheme flags its own way, and
				// its file is relative to this one.
				name = map[string]string{"file": "scheme", "name": "scheme-name", "base": "base"}[name]
				if name == "scheme" && value != "sample" && !filepath.IsAbs(value) {
					value = filepath.Join(filepath.Dir(path), value)
				}
			}
			if err := fs.Set(name, value); err != nil {
				return fail(fmt.Errorf("<%s %s=%q>: %w", el.name, a.Name.Local, a.Value, err))
			}
		}
	}
	for _, d := range doc.Domains {
		c.Domains = append(c.Domains, Domain{Name: d.Name, URLTemplate: d.URLTemplate, Scheme: d.Scheme, Priority: d.Priority})
	}
	for _, m := range doc.Mappers {
		mapper := NewMapper(m.From, m.To)
		for _, r := range m.Rules {
			mapper.Add(r.From, r.To...)
		}
		c.Mappers = append(c.Mappers, mapper)
	}
	return c, nil
}

// resolved is what validate had to read to judge a Config — the files it only
// names — so that New reads nothing twice.
type resolved struct {
	engine  core.Config      // everything but the store and the registry
	tenants *tenant.Registry // nil = no tenant gate
}

// validate is the one pass that judges a Config, run by New before it opens,
// creates or starts anything and by LoadConfig on what it returns.
func (c *Config) validate() (resolved, error) {
	var res resolved
	if c.ReplicationPrimary && c.FollowPrimary != "" {
		return res, fmt.Errorf("nnexus: ReplicationPrimary and FollowPrimary are mutually exclusive")
	}
	if (c.ReplicationPrimary || c.FollowPrimary != "") && c.DataDir == "" {
		return res, fmt.Errorf("nnexus: replication requires DataDir")
	}
	clustered := len(c.ClusterPeers) > 0
	if clustered {
		if c.DataDir == "" {
			return res, fmt.Errorf("nnexus: ClusterPeers requires DataDir")
		}
		if c.AdvertiseAddr == "" {
			return res, fmt.Errorf("nnexus: ClusterPeers requires AdvertiseAddr")
		}
		if !c.ReplicationPrimary && c.FollowPrimary == "" {
			return res, fmt.Errorf("nnexus: ClusterPeers requires an initial role: set ReplicationPrimary or FollowPrimary")
		}
	}
	if c.QuorumAcks > 0 {
		if !c.ReplicationPrimary && !clustered {
			return res, fmt.Errorf("nnexus: QuorumAcks requires a node that can serve as primary: set ReplicationPrimary or ClusterPeers")
		}
		if clustered {
			// The election freshness rule only guarantees the winner holds
			// records replicated to a voting majority. A quorum-acked write
			// lives on QuorumAcks+1 nodes (primary + k followers); for it to
			// survive any failover, that set must intersect every possible
			// election majority: QuorumAcks+1 + majority > N. A smaller k
			// would hand clients a "quorum" ack the next leader may not hold
			// — a silent gap between the configured word and the guarantee —
			// so it is rejected here rather than discovered in an outage.
			followers := 0
			for _, a := range c.ClusterPeers {
				if a != "" && a != c.AdvertiseAddr {
					followers++
				}
			}
			n := followers + 1
			if c.QuorumAcks > followers {
				return res, fmt.Errorf("nnexus: QuorumAcks=%d can never be satisfied by the cluster's %d follower(s)", c.QuorumAcks, followers)
			}
			majority := n/2 + 1
			if minAcks := n - majority; c.QuorumAcks < minAcks {
				return res, fmt.Errorf("nnexus: QuorumAcks=%d is below the failover-durability floor for a %d-node cluster: a quorum-acked write must reach at least %d followers to intersect every election majority (QuorumAcks+1+majority > N)", c.QuorumAcks, n, minAcks)
			}
		}
	}

	seen := map[string]bool{}
	for _, d := range c.Domains {
		if d.Name == "" {
			return res, fmt.Errorf("nnexus: domain without name")
		}
		if seen[d.Name] {
			return res, fmt.Errorf("nnexus: duplicate domain %q", d.Name)
		}
		seen[d.Name] = true
		if d.URLTemplate == "" {
			return res, fmt.Errorf("nnexus: domain %q has no urltemplate", d.Name)
		}
	}
	for _, m := range c.Mappers {
		if err := m.Validate(); err != nil {
			return res, err
		}
	}

	res.engine = core.Config{
		Scheme:           c.Scheme,
		Format:           c.Format,
		DefaultCorpus:    c.DefaultCorpus,
		LaTeX:            c.LaTeX,
		CompileAutomaton: c.CompileAutomaton,
	}
	if c.Scheme == nil && c.SchemeFile != "" {
		s, err := c.buildScheme()
		if err != nil {
			return res, err
		}
		res.engine.Scheme = s
	}
	if err := res.engine.Validate(); err != nil {
		return res, err
	}

	res.tenants = c.Tenants
	if c.TenantFile != "" {
		tc, err := tenant.LoadFile(c.TenantFile)
		if err != nil {
			return res, err
		}
		res.tenants = tenant.NewRegistry(tc)
	}
	return res, nil
}

// buildScheme is the one place a scheme is made from what a Config names:
// the built-in sample, or an OWL document.
func (c *Config) buildScheme() (s *Scheme, err error) {
	base := cmp.Or(c.SchemeBase, DefaultBaseWeight)
	if c.SchemeFile == "sample" {
		// SampleMSC panics when Build refuses a base whose distances would
		// overflow; here the base is a flag, so the refusal is an error.
		defer func() {
			if r := recover(); r != nil {
				s, err = nil, fmt.Errorf("nnexus: %v", r)
			}
		}()
		return SampleMSC(base), nil
	}
	return LoadSchemeOWLFile(c.SchemeFile, cmp.Or(c.SchemeName, "msc"), base)
}
