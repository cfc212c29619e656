package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"

	"pathflow/internal/serve"
)

// cmdServe runs the long-running analysis service: a shared engine (one
// artifact cache across all requests), a bounded job manager, and live
// per-stage metric streams. SIGINT/SIGTERM drain in-flight jobs via
// context cancellation before the process exits.
func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:8372", "listen address (use :0 for an ephemeral port)")
	workers := fs.Int("workers", 0, "parallel function analyses per job (0 = NumCPU)")
	maxJobs := fs.Int("maxjobs", 2, "concurrently running jobs (further submissions queue)")
	timeout := fs.Duration("timeout", 0, "default per-job deadline (0 = none; requests may set timeout_ms)")
	nocache := fs.Bool("nocache", false, "disable the shared artifact cache")
	cflags := addCacheFlags(fs, "512M")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("serve takes no positional arguments (got %q)", fs.Args())
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	maxBytes, err2 := parseSize(*cflags.max)
	if err2 != nil {
		return fmt.Errorf("-cachemax: %w", err2)
	}
	memBytes, err := parseSize(*cflags.mem)
	if err != nil {
		return fmt.Errorf("-cachemem: %w", err)
	}
	srv, err := serve.New(serve.Config{
		Workers:        *workers,
		MaxJobs:        *maxJobs,
		NoCache:        *nocache,
		CacheDir:       *cflags.dir,
		CacheMaxBytes:  maxBytes,
		MemoryMaxBytes: memBytes,
		DefaultTimeout: *timeout,
	})
	if err != nil {
		return err
	}
	err = srv.ListenAndServe(ctx, *addr, func(a net.Addr) {
		fmt.Printf("pathflow serve: listening on http://%s\n", a)
		fmt.Printf("pathflow serve: POST /v1/analyze, POST /v1/sweep, GET /v1/jobs, /healthz, /metrics\n")
	})
	if err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	fmt.Println("pathflow serve: drained, bye")
	return nil
}
