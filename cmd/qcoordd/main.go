// Command qcoordd is the long-lived coordination daemon: the paper's
// decision primitive served over HTTP. Balancer endpoint groups register as
// sessions (POST /v1/sessions), each provisioned with an entangled-pair
// budget from internal/entangle and watched by its own core.HealthMonitor;
// every POST /v1/decide answers a routing decision from the session's
// current strategy without any cross-endpoint communication. GET
// /v1/sessions/{id} reports health and degradation rung; GET /metrics
// renders the server's own counters, timers and admission state.
//
// Shutdown is graceful: the first SIGTERM/SIGINT stops accepting sessions
// and makes further decisions return a retryable 503, in-flight decisions
// drain under -drain-timeout, a final metrics artifact lands at
// -metrics-out, and the process exits 0. A second signal kills it.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/admission"
	"repro/internal/serve"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7117", "listen address (use :0 for an ephemeral port)")
	shards := flag.Int("shards", 16, fmt.Sprintf("session-store stripe width in [1, %d] (rounded up to a power of two)", serve.MaxShards))
	drainTimeout := flag.Duration("drain-timeout", 10*time.Second, "max wait for in-flight decisions at shutdown")
	metricsOut := flag.String("metrics-out", "qcoordd_metrics.json", "final metrics artifact path (empty to skip)")
	admissionOn := flag.Bool("admission", false, "enable overload admission control (concurrency limiter -> deadline gate -> priority shedding; rejects carry 429 + Retry-After)")
	admService := flag.Duration("admission-service", 50*time.Microsecond, "with -admission: initial per-round service-time estimate (the EWMA adapts from here)")
	admBacklog := flag.Duration("admission-max-backlog", 50*time.Millisecond, "with -admission: modeled per-shard backlog cap; requests beyond it shed regardless of priority")
	admBudget := flag.Duration("admission-default-budget", 0, "with -admission: deadline applied to requests that arrive unstamped (0 = none)")
	flag.Parse()
	if *shards < 1 || *shards > serve.MaxShards {
		fmt.Fprintf(os.Stderr, "qcoordd: -shards %d outside [1, %d]\n", *shards, serve.MaxShards)
		os.Exit(2)
	}

	cfg := serve.Config{Shards: *shards}
	if *admissionOn {
		cfg.Admission = &admission.Config{
			InitialService: *admService,
			MaxBacklog:     *admBacklog,
			DefaultBudget:  *admBudget,
		}
	}
	os.Exit(serveMain(*addr, cfg, *drainTimeout, *metricsOut))
}

// serveMain runs the daemon and returns the process exit code (split out so
// deferred cleanup runs before os.Exit).
func serveMain(addr string, cfg serve.Config, drainTimeout time.Duration, metricsOut string) int {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	srv := serve.NewServer(cfg)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "qcoordd: listen: %v\n", err)
		return 1
	}
	// The bound address goes to stdout first thing so harnesses using :0
	// can find the port.
	fmt.Printf("qcoordd: listening on %s\n", ln.Addr())

	hs := &http.Server{Handler: srv}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	select {
	case err := <-serveErr:
		fmt.Fprintf(os.Stderr, "qcoordd: serve: %v\n", err)
		return 1
	case <-ctx.Done():
	}
	// A second signal during the drain takes the default action.
	stop()

	// Drain: refuse new sessions and decisions, let in-flight ones finish.
	fmt.Fprintln(os.Stderr, "qcoordd: draining")
	srv.StartDrain()
	left := srv.Drain(drainTimeout)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	_ = hs.Shutdown(shutdownCtx)
	cancel()
	srv.StopSessions()

	if metricsOut != "" {
		if err := srv.WriteMetricsArtifact(metricsOut); err != nil {
			fmt.Fprintf(os.Stderr, "qcoordd: metrics artifact: %v\n", err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "qcoordd: metrics artifact written to %s\n", metricsOut)
	}
	if left != 0 {
		fmt.Fprintf(os.Stderr, "qcoordd: %d decisions still in flight at drain deadline\n", left)
		return 1
	}
	fmt.Fprintf(os.Stderr, "qcoordd: clean shutdown (%d sessions)\n", srv.SessionCount())
	return 0
}
