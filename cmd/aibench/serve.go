package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"aibench/internal/server"
)

// cmdServe runs suite-as-a-service: the internal/server HTTP front end
// — a bounded per-tenant fair queue in front of -workers run slots,
// each job running on its own submission's goroutine, and the exact
// result cache. SIGINT/SIGTERM starts a graceful drain — running jobs
// finish and stream out, queued jobs are shed with 503, new
// submissions are refused — bounded by -drain-timeout, after which
// in-flight runs are canceled at their next epoch boundary.
func cmdServe(args []string) {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	addr := fs.String("addr", "localhost:8080", "listen address (use :0 to pick a free port)")
	workers := fs.Int("workers", 1, "run slots: how many jobs run concurrently")
	queueCap := fs.Int("queue", 16, "submission queue bound across all tenants (full queue answers 429)")
	cacheCap := fs.Int("cache", 64, "exact result cache bound, in completed streams")
	drain := fs.Duration("drain-timeout", 30*time.Second, "how long a drain waits for running jobs before canceling them")
	fs.Parse(args)

	srv := server.New(server.Options{
		Workers:      *workers,
		QueueCap:     *queueCap,
		CacheEntries: *cacheCap,
	})
	srv.Start()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("aibench serve: suite %s listening on %s (workers=%d queue=%d cache=%d)\n",
		srv.SuiteSHA(), ln.Addr(), *workers, *queueCap, *cacheCap)

	hs := &http.Server{Handler: srv.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case <-ctx.Done():
	case err := <-serveErr:
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	stop() // second signal force-quits via default handling
	fmt.Fprintln(os.Stderr, "aibench serve: draining (running jobs finish, queued jobs are shed)")

	dctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(dctx); err != nil {
		fmt.Fprintf(os.Stderr, "aibench serve: drain timed out; in-flight runs canceled: %v\n", err)
	}
	if err := hs.Shutdown(dctx); err != nil && err != context.DeadlineExceeded {
		fmt.Fprintf(os.Stderr, "aibench serve: http shutdown: %v\n", err)
	}
	fmt.Fprintln(os.Stderr, "aibench serve: stopped")
}

// cmdSubmit posts one Plan to a running `aibench serve` and streams
// the NDJSON envelope response as it arrives — to stdout by default,
// or to -out, where `aibench report -from` can rebuild reports from
// it. Exit status: 0 on a streamed or cached result, 3 on backpressure
// (429: retry after the Retry-After delay), 1 otherwise.
func cmdSubmit(args []string) {
	fs := flag.NewFlagSet("submit", flag.ExitOnError)
	addr := fs.String("addr", "localhost:8080", "server address (host:port)")
	tenant := fs.String("tenant", "", "tenant id for fair scheduling (X-Tenant header)")
	planJSON := fs.String("plan", "", `plan JSON, e.g. '{"kind":"session","benchmarks":["DC-AI-C1"],"epochs":1}' ('-' reads stdin)`)
	out := fs.String("out", "", "write the response stream to this file instead of stdout")
	fs.Parse(args)
	if *planJSON == "" {
		fmt.Fprintln(os.Stderr, "usage: aibench submit -plan '{...}' [-addr host:port] [-tenant T] [-out F]")
		os.Exit(2)
	}
	body := *planJSON
	if body == "-" {
		data, err := io.ReadAll(os.Stdin)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		body = string(data)
	}

	req, err := http.NewRequest(http.MethodPost, "http://"+*addr+"/jobs", strings.NewReader(body))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	req.Header.Set("Content-Type", "application/json")
	if *tenant != "" {
		req.Header.Set("X-Tenant", *tenant)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer resp.Body.Close()

	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4<<10))
		fmt.Fprintf(os.Stderr, "aibench submit: %s: %s", resp.Status, msg)
		if resp.StatusCode == http.StatusTooManyRequests {
			fmt.Fprintf(os.Stderr, "aibench submit: backpressure; retry after %ss\n", resp.Header.Get("Retry-After"))
			os.Exit(3)
		}
		os.Exit(1)
	}

	dst := io.Writer(os.Stdout)
	var outFile *os.File
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cannot create %s: %v\n", *out, err)
			os.Exit(1)
		}
		outFile = f
		dst = f
	}
	n, err := io.Copy(dst, resp.Body)
	if outFile != nil {
		if cerr := outFile.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "aibench submit: stream broke after %d bytes: %v\n", n, err)
		os.Exit(1)
	}
	if *out != "" {
		fmt.Fprintf(os.Stderr, "aibench submit: job %s cache=%s: %d bytes streamed to %s\n",
			resp.Header.Get("X-Job-Id"), resp.Header.Get("X-Cache"), n, *out)
	}
}
