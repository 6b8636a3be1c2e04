// Command noosphere runs a small collaborative encyclopedia in the style
// of PlanetMath: a web wiki whose every page view is automatically linked
// by NNexus (the paper's §1: NNexus generalizes "the automatic linking
// component of the Noosphere system, which is the platform of PlanetMath").
//
// Usage:
//
//	noosphere -addr 127.0.0.1:8080 -data /var/lib/noosphere
//
// The wiki is served at /, and the NNexus JSON API at /api/ (see the
// httpapi package).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"nnexus"
	"nnexus/internal/noosphere"
	"nnexus/internal/storage"
)

// open boots the wiki: the node through the facade, like every NNexus binary,
// with the wiki's domain configured — a domain the store already replayed
// unchanged costs no WAL record — and beside it, under <data>/revisions and
// the same durability settings, the store the revision history lives in.
func open(cfg nnexus.Config, domain string) (*nnexus.Engine, *storage.Store, *noosphere.Wiki, error) {
	cfg.LaTeX = true
	cfg.Domains = []nnexus.Domain{{Name: domain, URLTemplate: "/entry/{id}", Scheme: "msc", Priority: 1}}
	var dir string
	var opts []storage.Option
	if cfg.DataDir != "" {
		dir = filepath.Join(cfg.DataDir, "revisions")
	}
	if cfg.SyncWrites {
		opts = append(opts, storage.WithSyncWrites())
	}
	engine, err := nnexus.New(cfg)
	if err != nil {
		return nil, nil, nil, err
	}
	revisions, err := storage.Open(dir, opts...)
	if err != nil {
		engine.Close()
		return nil, nil, nil, err
	}
	wiki, err := noosphere.New(engine, domain, revisions)
	if err != nil {
		revisions.Close()
		engine.Close()
		return nil, nil, nil, err
	}
	return engine, revisions, wiki, nil
}

func main() {
	var (
		addr         = flag.String("addr", "127.0.0.1:8080", "HTTP listen address")
		dataDir      = flag.String("data", "", "data directory (empty = memory only)")
		domain       = flag.String("domain", "planetmath.local", "wiki domain name")
		base         = flag.Int("base", nnexus.DefaultBaseWeight, "classification weight base")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "how long a SIGTERM drain may wait for in-flight requests")
		syncWrites   = flag.Bool("sync", false, "fsync every persisted mutation before acknowledging it")
	)
	flag.Parse()
	logger := log.New(os.Stderr, "noosphere: ", log.LstdFlags)

	engine, revisions, wiki, err := open(nnexus.Config{
		Scheme:     nnexus.MSC2000(*base),
		DataDir:    *dataDir,
		SyncWrites: *syncWrites,
	}, *domain)
	if err != nil {
		logger.Fatal(err)
	}
	defer engine.Close()
	defer revisions.Close()

	// The API handler also answers the probes; it is mounted under /api/,
	// so route the conventional root paths to it as well.
	api := engine.HTTPHandler()
	mux := http.NewServeMux()
	mux.Handle("/api/", api)
	mux.Handle("GET /healthz", api)
	mux.Handle("GET /readyz", api)
	mux.Handle("/", wiki)

	srv := &http.Server{Addr: *addr, Handler: mux, ReadHeaderTimeout: 10 * time.Second}
	go func() {
		fmt.Printf("noosphere wiki on http://%s/ (%d entries)\n", *addr, engine.NumEntries())
		if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
			logger.Fatal(err)
		}
	}()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	logger.Printf("draining (deadline %s)", *drainTimeout)
	engine.Health().SetDraining(true)
	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		logger.Printf("drain: %v", err)
		srv.Close()
	}
	if err := errors.Join(engine.Compact(), revisions.Compact()); err != nil {
		logger.Print(err)
	}
	logger.Print("drained")
}
