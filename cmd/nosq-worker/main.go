// Command nosq-worker is a remote simulation worker: it joins a
// nosq-server coordinator's fleet and pulls leased shard tasks — runs of a
// job's pending (benchmark, configuration) pairs — executing them with the
// local simulator and posting each finished pair back. Run one per machine
// to scale a sweep across hosts, built from the coordinator's commit:
//
//	nosq-worker -server http://10.0.0.5:8080
//	nosq-worker -server http://10.0.0.5:8080 -name rack7 -parallel 8
//
// The worker is stateless: killing it at any moment costs at most the
// unposted pairs of its current task, which the coordinator re-leases to
// another worker after the lease TTL. SIGINT/SIGTERM exit gracefully,
// salvaging the pairs finished so far. A coordinator of another code
// revision refuses the worker, which then exits 1 with the refusal.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/simworker"
)

// validateFlags rejects flag values that would make the agent hang or spin.
func validateFlags(parallel int, pollInterval, pairDelay time.Duration) error {
	if parallel <= 0 {
		return fmt.Errorf("-parallel must be positive, got %d", parallel)
	}
	if pollInterval <= 0 {
		return fmt.Errorf("-poll-interval must be positive, got %v (a zero interval would spin on the coordinator)", pollInterval)
	}
	if pairDelay < 0 {
		return fmt.Errorf("-pair-delay must be non-negative, got %v", pairDelay)
	}
	return nil
}

func main() {
	hostname, _ := os.Hostname()
	var (
		server   = flag.String("server", "", "coordinator base URL (required), e.g. http://10.0.0.5:8080")
		name     = flag.String("name", hostname, "worker name shown in coordinator logs")
		parallel = flag.Int("parallel", runtime.GOMAXPROCS(0), "concurrent simulations within a task")
		poll     = flag.Duration("poll-interval", 500*time.Millisecond, "idle lease-polling interval (coordinator hint may lower it)")
		delay    = flag.Duration("pair-delay", 0, "sleep after each finished pair, throttling a shared machine")
		quiet    = flag.Bool("quiet", false, "suppress per-task log lines")
		pprof    = flag.String("pprof-addr", "", "serve net/http/pprof on this separate address (e.g. localhost:6060; default: disabled)")
		version  = flag.Bool("version", false, "print version information and exit")
	)
	flag.Parse()

	if *version {
		obs.PrintVersion(os.Stdout, "nosq-worker")
		return
	}

	logger := log.New(os.Stderr, "nosq-worker: ", log.LstdFlags)
	if *pprof != "" {
		pln, err := obs.StartPprof(*pprof)
		if err != nil {
			logger.Fatal(err)
		}
		fmt.Printf("nosq-worker pprof on http://%s/debug/pprof/\n", pln.Addr())
	}
	if *server == "" {
		logger.Print("-server is required")
		flag.Usage()
		os.Exit(2)
	}
	if err := validateFlags(*parallel, *poll, *delay); err != nil {
		logger.Print(err)
		os.Exit(2)
	}

	cfg := simworker.Config{
		Server:       *server,
		Name:         *name,
		Parallelism:  *parallel,
		PollInterval: *poll,
		PairDelay:    *delay,
	}
	if !*quiet {
		cfg.Logf = logger.Printf
	}
	agent, err := simworker.New(cfg)
	if err != nil {
		logger.Fatal(err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := agent.Run(ctx); err != nil && !errors.Is(err, context.Canceled) {
		logger.Fatal(err)
	}
	logger.Print("shut down")
}
