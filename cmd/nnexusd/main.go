// Command nnexusd runs the NNexus server daemon: it loads (or creates) a
// persistent collection and answers XML requests over TCP, as the deployed
// Perl system did (paper §3.1).
//
// Usage:
//
//	nnexusd -addr 127.0.0.1:7070 -data /var/lib/nnexus -scheme msc.owl
//	nnexusd -config nnexus.xml -data /var/lib/nnexus
//
// Every setting is a field of nnexus.Config, given as a flag, as an attribute
// of the -config XML file under the same name, or both (the flag wins); the
// README's "Configuration" section lists them. With -scheme sample the
// built-in MSC fixture is used, which is enough to play with the protocol.
// With -http the HTTP API is served too, including Prometheus telemetry at
// GET /metrics; -pprof adds the standard /debug/pprof/ profiling handlers to
// the same listener.
//
// One daemon serves the whole corpus. For read scale-out and failover, run
// it as a replication group (-repl-primary, -follow, -peers).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"nnexus"
)

func main() {
	logger := log.New(os.Stderr, "nnexusd: ", log.LstdFlags)
	stop := make(chan os.Signal, 2)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	if err := run(os.Args[1:], stop, logger); err != nil && !errors.Is(err, flag.ErrHelp) {
		logger.Fatal(err)
	}
}

// run is the daemon: load the configuration, build the node, open its doors,
// wait for a signal on stop, drain. A second signal cuts the drain short.
func run(args []string, stop <-chan os.Signal, logger *log.Logger) error {
	cfg, err := nnexus.ParseArgs("nnexusd", args)
	if err != nil {
		return err
	}
	engine, err := nnexus.New(cfg)
	if err != nil {
		return err
	}
	defer engine.Close()

	srv, bound, err := engine.Serve(cfg.Listen, logger)
	if err != nil {
		return err
	}
	defer srv.Close()
	fmt.Printf("nnexusd listening on %s (%d entries, %d concepts)\n",
		bound, engine.NumEntries(), engine.NumConcepts())

	var httpSrv *http.Server
	if cfg.HTTP != "" {
		// Bound before it is announced: a port that is taken stops the
		// daemon here instead of leaving it serving without its probes.
		ln, err := net.Listen("tcp", cfg.HTTP)
		if err != nil {
			return err
		}
		// The API handler already serves GET /metrics (Prometheus text
		// format); -pprof additionally mounts the standard profiling
		// handlers so a live daemon can be profiled under load.
		handler := engine.HTTPHandler()
		if cfg.Pprof {
			// Importing net/http/pprof registered its handlers, and nothing
			// else, on the default mux.
			mux := http.NewServeMux()
			mux.Handle("/", handler)
			mux.Handle("/debug/pprof/", http.DefaultServeMux)
			handler = mux
		}
		httpSrv = &http.Server{Handler: handler, ReadHeaderTimeout: 10 * time.Second}
		defer httpSrv.Close()
		go func() {
			if err := httpSrv.Serve(ln); err != nil && err != http.ErrServerClosed {
				logger.Print(err)
			}
		}()
		fmt.Printf("nnexusd HTTP API on %s (metrics at /metrics", ln.Addr())
		if cfg.Pprof {
			fmt.Print(", profiling at /debug/pprof/")
		}
		fmt.Println(")")
	} else if cfg.Pprof {
		logger.Print("-pprof has no effect without -http")
	}

	// Graceful drain: on SIGTERM/SIGINT flip readiness (so orchestrators
	// stop routing new traffic), stop accepting, let in-flight requests
	// finish under the drain deadline, then persist and exit. A second
	// signal force-exits immediately.
	<-stop
	logger.Printf("draining (deadline %s; signal again to force quit)", cfg.DrainTimeout)
	engine.Health().SetDraining(true)
	ctx, cancel := context.WithTimeout(context.Background(), cfg.DrainTimeout)
	defer cancel()
	go func() {
		select {
		case <-stop:
			logger.Print("second signal: force quitting")
			cancel()
		case <-ctx.Done():
		}
	}()
	if httpSrv != nil {
		if err := httpSrv.Shutdown(ctx); err != nil {
			logger.Printf("http drain: %v", err)
		}
	}
	if err := srv.Shutdown(ctx); err != nil {
		logger.Printf("tcp drain: %v", err)
	}
	if err := engine.Compact(); err != nil {
		logger.Print(err)
	}
	logger.Print("drained")
	return nil
}
