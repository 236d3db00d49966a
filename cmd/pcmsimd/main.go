// Command pcmsimd is the sweep-service broker: it accepts sweep jobs
// (workload x scheme x seed grids) over HTTP, fans the shards out to a
// fleet of pcmsimw workers over net/rpc, and survives worker crashes,
// broker restarts and client disconnects.
//
// Usage:
//
//	pcmsimd -rpc :7077 -http :7070 -journal pcmsimd.journal.jsonl
//
// Clients:
//
//	curl -s -XPOST localhost:7070/jobs -d '{"figs":[13],"instr":20000}'
//	curl -s localhost:7070/jobs/j0000            # status
//	curl -s localhost:7070/jobs/j0000/wait       # block until terminal
//	curl -s localhost:7070/jobs/j0000/result     # rendered tables
//	curl -sN localhost:7070/jobs/j0000/events    # live JSON-lines events
//	curl -s localhost:7070/metrics               # Prometheus exposition
//	curl -sN 'localhost:7070/metrics/stream?every=2s'
//
// SIGTERM/SIGINT drains: submissions stop, running jobs finish (bounded
// by -drain-timeout), and whatever remains resumes from the journal on
// the next start.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/rpc"
	"os"
	"os/signal"
	"syscall"
	"time"

	"tetriswrite/internal/fleet"
	"tetriswrite/internal/runner"
	"tetriswrite/internal/version"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "pcmsimd: %v\n", err)
		os.Exit(1)
	}
}

// options is pcmsimd's validated command line.
type options struct {
	rpcAddr, httpAddr string
	drainTimeout      time.Duration
	showVersion       bool
	broker            fleet.Config // Logf is left for run to set
}

// parseFlags parses and validates the command line. With -version it
// returns at once and skips the remaining checks.
func parseFlags(args []string, stderr io.Writer) (options, error) {
	fs := flag.NewFlagSet("pcmsimd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		rpcAddr  = fs.String("rpc", ":7077", "worker RPC listen address")
		httpAddr = fs.String("http", ":7070", "client HTTP listen address")
		journal  = fs.String("journal", "pcmsimd.journal.jsonl", "shard-completion journal path ('' disables resume)")
		lease    = fs.Duration("lease", 5*time.Second, "worker lease TTL (missed heartbeats past this deregister the worker)")
		poll     = fs.Duration("poll", 200*time.Millisecond, "idle poll interval dictated to workers")
		backoff  = fs.Duration("backoff", 500*time.Millisecond, "base shard retry backoff")
		maxBack  = fs.Duration("max-backoff", 10*time.Second, "shard retry backoff cap")
		jitter   = fs.Float64("jitter", 0.2, "shard retry jitter fraction (0..1; 0 retries at exactly the backoff)")
		drainTO  = fs.Duration("drain-timeout", 30*time.Second, "how long SIGTERM waits for running jobs before exiting anyway")
		showVer  = fs.Bool("version", false, "print build version and exit")
	)
	if err := fs.Parse(args); err != nil {
		return options{}, err
	}
	opt := options{rpcAddr: *rpcAddr, httpAddr: *httpAddr, drainTimeout: *drainTO, showVersion: *showVer}
	if opt.showVersion {
		return opt, nil
	}
	for _, d := range []struct {
		flag string
		v    time.Duration
	}{{"lease", *lease}, {"poll", *poll}, {"backoff", *backoff}, {"max-backoff", *maxBack}} {
		if d.v <= 0 {
			return options{}, fmt.Errorf("-%s %v: want > 0", d.flag, d.v)
		}
	}
	if *maxBack < *backoff {
		return options{}, fmt.Errorf("-max-backoff %v: below -backoff %v", *maxBack, *backoff)
	}
	if *jitter < 0 || *jitter > 1 {
		return options{}, fmt.Errorf("-jitter %v: want 0..1", *jitter)
	}
	if *drainTO < 0 {
		return options{}, fmt.Errorf("-drain-timeout %v: cannot be negative", *drainTO)
	}
	opt.broker = fleet.Config{
		LeaseTTL:    *lease,
		Poll:        *poll,
		Retry:       runner.Backoff{Base: *backoff, Max: *maxBack, Jitter: *jitter},
		JournalPath: *journal,
	}
	return opt, nil
}

func run(args []string, stdout, stderr io.Writer) error {
	opt, err := parseFlags(args, stderr)
	if err != nil {
		return err
	}
	if opt.showVersion {
		fmt.Fprintln(stdout, version.String("pcmsimd"))
		return nil
	}

	logger := log.New(stderr, "pcmsimd: ", log.LstdFlags|log.Lmsgprefix)
	opt.broker.Logf = logger.Printf
	broker, err := fleet.New(opt.broker)
	if err != nil {
		return err
	}
	defer broker.Close()

	rpcSrv := rpc.NewServer()
	if err := rpcSrv.RegisterName(fleet.RPCService, broker.RPC()); err != nil {
		return err
	}
	rpcLn, err := net.Listen("tcp", opt.rpcAddr)
	if err != nil {
		return err
	}
	defer rpcLn.Close()
	go acceptRPC(rpcSrv, rpcLn)

	httpSrv := &http.Server{Addr: opt.httpAddr, Handler: broker.Handler()}
	httpLn, err := net.Listen("tcp", opt.httpAddr)
	if err != nil {
		return err
	}
	logger.Printf("%s", version.String("pcmsimd"))
	logger.Printf("serving: workers rpc=%s, clients http=%s, journal=%s",
		rpcLn.Addr(), httpLn.Addr(), opt.broker.JournalPath)
	go httpSrv.Serve(httpLn)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	<-ctx.Done()
	stop()

	logger.Printf("signal received: draining (up to %v)", opt.drainTimeout)
	drainCtx, cancel := context.WithTimeout(context.Background(), opt.drainTimeout)
	defer cancel()
	if err := broker.Drain(drainCtx); err != nil {
		logger.Printf("%v", err)
	} else {
		logger.Printf("drained clean")
	}
	shutCtx, cancel2 := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel2()
	httpSrv.Shutdown(shutCtx)
	return nil
}

// acceptRPC serves worker connections until the listener closes.
func acceptRPC(srv *rpc.Server, ln net.Listener) {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		go srv.ServeConn(conn)
	}
}
