// Command focus-serve is the multi-tenant resident master: it owns one
// worker fleet (in-process or TCP) and serves a job-queue HTTP API that
// multiplexes concurrent assembly jobs onto it, with admission control,
// per-job quotas and checkpoint namespaces, and a scrapeable metrics and
// health surface.
//
//	focus-serve -listen :8844 -workers 4 -root /var/lib/focus/jobs
//
//	curl -X POST :8844/jobs -d '{"name":"ecoli","input_path":"reads.fastq","k":4}'
//	curl :8844/jobs/job-000001
//	curl :8844/status
//	curl :8844/metrics
//	curl -X DELETE :8844/jobs/job-000001          # kill
//	curl -X POST :8844/jobs/job-000001/resume     # resume from checkpoint
//
// SIGINT/SIGTERM drains: admission stops, running jobs get -grace to
// finish, leftovers are checkpointed and killed; a restarted server with
// the same -root requeues and resumes them.
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
	"strings"
	"syscall"
	"time"

	focus "focus"
	"focus/internal/assembly"
	"focus/internal/dist"
	"focus/internal/jobs"
)

func main() {
	var (
		listen     = flag.String("listen", ":8844", "HTTP listen address")
		workers    = flag.Int("workers", 4, "number of in-process fleet workers")
		addrs      = flag.String("worker-addrs", "", "comma-separated TCP worker addresses (overrides -workers)")
		root       = flag.String("root", "", "checkpoint root directory; each job gets root/<id> (empty = no durability)")
		queueDepth = flag.Int("queue-depth", 16, "maximum queued jobs before submits are rejected (429)")
		maxRunning = flag.Int("max-running", 4, "maximum concurrently running jobs")
		memBudget  = flag.Int("memory-budget-mb", 0, "total declared-memory budget across running jobs (0 = unaccounted)")
		grace      = flag.Duration("grace", 15*time.Second, "drain grace for running jobs on SIGINT/SIGTERM")
		callTO     = flag.Duration("call-timeout", 0, "fixed per-RPC deadline overriding the liveness rule; a worker exceeding it is disconnected and its task rescheduled (0 = no deadline: a call is cut only when its worker leaves a liveness ping unanswered for 2s)")
		maxFails   = flag.Int("max-worker-failures", 0, "consecutive transport failures before a worker is evicted (0 = default 3)")
	)
	flag.Parse()

	cfg := focus.DefaultConfig()
	cfg.Dist = dist.Options{CallTimeout: *callTO, MaxFailures: *maxFails}

	var pool *dist.Pool
	var err error
	if *addrs != "" {
		pool, err = dist.DialPoolOpts(strings.Split(*addrs, ","), cfg.Dist)
	} else {
		pool, err = dist.NewLocalPoolOpts(*workers, assembly.NewService, cfg.Dist)
	}
	if err != nil {
		log.Fatalf("focus-serve: fleet: %v", err)
	}
	defer pool.Close()

	srv, err := jobs.NewServer(pool, jobs.Options{
		QueueDepth:     *queueDepth,
		MaxRunning:     *maxRunning,
		MemoryBudgetMB: *memBudget,
		Root:           *root,
		Grace:          *grace,
		Template:       cfg,
		Logf:           log.Printf,
	})
	if err != nil {
		log.Fatalf("focus-serve: %v", err)
	}

	httpSrv := &http.Server{Addr: *listen, Handler: srv.Handler()}
	go func() {
		log.Printf("focus-serve: listening on %s (fleet: %d workers, root: %s)",
			*listen, pool.Size(), orNone(*root))
		if err := httpSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Fatalf("focus-serve: http: %v", err)
		}
	}()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
	log.Printf("focus-serve: draining (grace %s)", *grace)
	srv.Drain(*grace)
	srv.Close()
	shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil {
		log.Printf("focus-serve: http shutdown: %v", err)
	}
	fmt.Println("focus-serve: drained")
}

func orNone(s string) string {
	if s == "" {
		return "(none)"
	}
	return s
}
