// Command pcmsimw is a sweep-service worker: it registers with a
// pcmsimd broker, pulls shard leases, runs each full-system simulation
// and reports the summary back. Many workers share one broker; the
// broker's lease machinery handles any of them dying at any moment.
//
// Usage:
//
//	pcmsimw -broker host:7077 -slots 4
//
// SIGTERM/SIGINT exits gracefully: running shards are cancelled and the
// worker deregisters so its leases requeue immediately. A SIGKILL (or a
// crash) is also fine — the broker notices the missed heartbeats and
// retries the leased shards on surviving workers.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"runtime"
	"syscall"

	"tetriswrite/internal/fleet"
	"tetriswrite/internal/version"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil && !errors.Is(err, context.Canceled) {
		fmt.Fprintf(os.Stderr, "pcmsimw: %v\n", err)
		os.Exit(1)
	}
}

// options is pcmsimw's validated command line.
type options struct {
	showVersion bool
	worker      fleet.WorkerConfig // Logf is left for run to set
}

// parseFlags parses and validates the command line. With -version it
// returns at once and skips the remaining checks.
func parseFlags(args []string, stderr io.Writer) (options, error) {
	fs := flag.NewFlagSet("pcmsimw", flag.ContinueOnError)
	fs.SetOutput(stderr)
	host, _ := os.Hostname()
	if host == "" {
		host = "pcmsimw"
	}
	var (
		broker  = fs.String("broker", "localhost:7077", "broker RPC address")
		name    = fs.String("name", host, "worker name reported to the broker")
		slots   = fs.Int("slots", runtime.GOMAXPROCS(0), "concurrent shard simulations")
		showVer = fs.Bool("version", false, "print build version and exit")
	)
	if err := fs.Parse(args); err != nil {
		return options{}, err
	}
	if *showVer {
		return options{showVersion: true}, nil
	}
	if *broker == "" {
		return options{}, fmt.Errorf("-broker: want a host:port address, got empty")
	}
	if *name == "" {
		return options{}, fmt.Errorf("-name: want a non-empty worker name")
	}
	if *slots <= 0 {
		return options{}, fmt.Errorf("-slots %d: want >= 1", *slots)
	}
	return options{worker: fleet.WorkerConfig{
		Broker:  *broker,
		Name:    *name,
		Slots:   *slots,
		Version: version.String("pcmsimw"),
	}}, nil
}

func run(args []string, stdout, stderr io.Writer) error {
	opt, err := parseFlags(args, stderr)
	if err != nil {
		return err
	}
	if opt.showVersion {
		fmt.Fprintln(stdout, version.String("pcmsimw"))
		return nil
	}

	logger := log.New(stderr, "pcmsimw: ", log.LstdFlags|log.Lmsgprefix)
	logger.Printf("%s", version.String("pcmsimw"))
	opt.worker.Logf = logger.Printf
	w := fleet.NewWorker(opt.worker)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	return w.Run(ctx)
}
