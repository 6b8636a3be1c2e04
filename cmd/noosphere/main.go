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
	"syscall"
	"time"

	"nnexus/internal/classification"
	"nnexus/internal/core"
	"nnexus/internal/corpus"
	"nnexus/internal/health"
	"nnexus/internal/httpapi"
	"nnexus/internal/noosphere"
	"nnexus/internal/service"
	"nnexus/internal/storage"
	"nnexus/internal/telemetry"
)

func main() {
	var (
		addr         = flag.String("addr", "127.0.0.1:8080", "HTTP listen address")
		dataDir      = flag.String("data", "", "data directory (empty = memory only)")
		domain       = flag.String("domain", "planetmath.local", "wiki domain name")
		base         = flag.Int("base", classification.DefaultBaseWeight, "classification weight base")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "how long a SIGTERM drain may wait for in-flight requests")
		syncWrites   = flag.Bool("sync", false, "fsync every persisted mutation before acknowledging it")
		commitWindow = flag.Duration("group-commit-window", 0, "WAL group-commit gathering window under -sync (0 = commit eagerly)")
	)
	flag.Parse()
	logger := log.New(os.Stderr, "noosphere: ", log.LstdFlags)

	// One registry spans the storage WAL, the engine, and the HTTP layer.
	reg := telemetry.NewRegistry()
	var store *storage.Store
	if *dataDir != "" {
		opts := []storage.Option{storage.WithTelemetry(reg)}
		if *syncWrites {
			opts = append(opts, storage.WithSyncWrites())
		}
		if *commitWindow > 0 {
			opts = append(opts, storage.WithGroupCommitWindow(*commitWindow))
		}
		var err error
		store, err = storage.Open(*dataDir, opts...)
		if err != nil {
			logger.Fatal(err)
		}
		defer store.Close()
	}
	engine, err := core.NewEngine(core.Config{
		Scheme:    classification.MSC2000(*base),
		Store:     store,
		LaTeX:     true,
		Telemetry: reg,
	})
	if err != nil {
		logger.Fatal(err)
	}
	if err := engine.AddDomain(corpus.Domain{
		Name:        *domain,
		URLTemplate: "/entry/{id}",
		Scheme:      "msc",
		Priority:    1,
	}); err != nil {
		logger.Fatal(err)
	}

	var wikiOpts []noosphere.Option
	if store != nil {
		wikiOpts = append(wikiOpts, noosphere.WithStore(store))
	}
	wiki, err := noosphere.New(engine, *domain, wikiOpts...)
	if err != nil {
		logger.Fatal(err)
	}
	svc := service.New(engine)
	healthState := health.NewState()
	if store != nil {
		healthState.AddCheck("storage", store.Ready)
	}
	healthState.AddInfo("replication", svc.Role.Info)
	// The API handler also answers the probes; it is mounted under /api/,
	// so route the conventional root paths to it as well.
	api := httpapi.New(svc, healthState)
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
	healthState.SetReady(true)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	logger.Printf("draining (deadline %s)", *drainTimeout)
	healthState.SetDraining(true)
	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		logger.Printf("drain: %v", err)
		srv.Close()
	}
	if store != nil {
		if err := store.Compact(); err != nil {
			logger.Print(err)
		}
	}
	logger.Print("drained")
}
