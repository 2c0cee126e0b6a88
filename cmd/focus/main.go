// Command focus is the end-to-end assembler CLI: it reads FASTA/FASTQ,
// runs the full Focus pipeline (preprocess, overlap alignment, multilevel
// + hybrid graph construction, partitioning, distributed trimming and
// traversal) and writes contigs as FASTA.
//
// On SIGINT/SIGTERM the run is canceled gracefully: every stage unwinds
// at its next grain boundary, in-flight RPCs are severed, and — with
// -checkpoint-dir set — a best-effort checkpoint of the last completed
// assembly phase is written so -resume can continue the run. The process
// then exits with code 3 (interrupted but resumable). A second signal, or
// a cancel that fails to unwind within -grace, forces an immediate exit
// with code 130.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"focus"
	"focus/internal/assembly"
	"focus/internal/dist"
	"focus/internal/dna"
)

// exitResumable is the exit code of a run interrupted by signal or
// deadline: incomplete, but resumable via -resume when checkpointing
// is enabled. Distinct from 1 (failure) and 130 (forced kill).
const exitResumable = 3

var errSignal = fmt.Errorf("interrupted by signal: %w", context.Canceled)

// watchSignals cancels ctx on the first SIGINT/SIGTERM and force-exits on
// the second (or when the cancel has not unwound within grace). The
// returned stop func detaches the handler once the run completes.
func watchSignals(ctx context.Context, grace time.Duration) (context.Context, func()) {
	ctx, cancel := context.WithCancelCause(ctx)
	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		select {
		case sig := <-sigs:
			fmt.Fprintf(os.Stderr, "focus: %s: canceling run (up to %v); signal again to force exit\n", sig, grace)
			cancel(errSignal)
			var timeC <-chan time.Time
			if grace > 0 {
				t := time.NewTimer(grace)
				defer t.Stop()
				timeC = t.C
			}
			select {
			case <-sigs:
			case <-timeC:
				fmt.Fprintln(os.Stderr, "focus: cancel did not unwind in time; forcing exit")
			case <-done:
				return
			}
			os.Exit(130)
		case <-done:
		}
	}()
	return ctx, func() {
		signal.Stop(sigs)
		close(done)
		cancel(nil)
	}
}

// The command line; README.md's focus examples may use only these flags
// (TestReadmeFlagsDefined).
var (
	in        = flag.String("in", "", "input reads (.fastq or .fasta)")
	out       = flag.String("out", "contigs.fasta", "output contig FASTA")
	parts     = flag.Int("partitions", 4, "number of graph partitions (power of two)")
	workers   = flag.Int("workers", 4, "number of in-process workers")
	addrs     = flag.String("worker-addrs", "", "comma-separated TCP worker addresses (overrides -workers)")
	trim5     = flag.Int("trim5", 0, "fixed 5' trim length")
	trim3     = flag.Int("trim3", 0, "fixed 3' trim length")
	minQ      = flag.Float64("minq", 12, "sliding-window minimum mean quality")
	subsets   = flag.Int("subsets", 4, "read subsets the alignment is cut into for parallelism only: the records and contigs are the same at any count")
	seedK     = flag.Int("k", 16, "seed k-mer length for overlap detection")
	minOvl    = flag.Int("min-overlap", 50, "minimum overlap length (bp)")
	minIdent  = flag.Float64("min-identity", 0.90, "minimum overlap identity")
	quietFlag = flag.Bool("quiet", false, "suppress progress output")
	variants  = flag.Bool("variants", false, "call variants from hybrid-graph bubbles (before bubble popping)")
	distAlign = flag.Bool("distributed-align", false, "run read alignment on the worker pool instead of local goroutines")
	callTO    = flag.Duration("call-timeout", 0, "fixed per-RPC deadline overriding the liveness rule; a worker exceeding it is disconnected and its task rescheduled (0 = no deadline: a call is cut only when its worker leaves a liveness ping unanswered for 2s)")
	maxFails  = flag.Int("max-worker-failures", 0, "consecutive transport failures before a worker is permanently evicted (0 = default 3)")
	ckptDir   = flag.String("checkpoint-dir", "", "write crash-recovery checkpoints of the assembly phases to this directory")
	ckptEvery = flag.Int("checkpoint-every", 1, "checkpoint every Nth phase boundary (with -checkpoint-dir)")
	resume    = flag.Bool("resume", false, "resume the assembly phases from the newest valid checkpoint in -checkpoint-dir")
	jobID     = flag.String("job", "", "job id owning -checkpoint-dir; a mismatched owner fails the run instead of mixing two jobs' checkpoints (empty = no ownership check)")
	deadline  = flag.Duration("deadline", 0, "wall-clock budget for the whole run; on expiry the run is canceled like SIGINT (0 = unbounded)")
	grace     = flag.Duration("grace", 10*time.Second, "unwind budget after SIGINT/SIGTERM before the exit is forced")
)

func main() {
	flag.Parse()
	if *in == "" {
		fmt.Fprintln(os.Stderr, "focus: -in is required")
		flag.Usage()
		os.Exit(2)
	}

	reads, err := dna.ReadsFromFile(*in)
	if err != nil {
		fatal(err)
	}

	cfg := focus.DefaultConfig()
	cfg.Preprocess.Trim5 = *trim5
	cfg.Preprocess.Trim3 = *trim3
	cfg.Preprocess.MinQuality = *minQ
	cfg.Subsets = *subsets
	cfg.Overlap.K = *seedK
	cfg.Overlap.Align.MinLength = *minOvl
	cfg.Overlap.Align.MinIdentity = *minIdent
	cfg.Assembly.MinEdgeOverlap = *minOvl
	cfg.Assembly.MinEdgeIdentity = *minIdent
	cfg.CallVariants = *variants
	cfg.Dist.CallTimeout = *callTO
	cfg.Dist.MaxFailures = *maxFails
	cfg.Checkpoint = focus.Checkpoint{Dir: *ckptDir, Every: *ckptEvery, Resume: *resume, Job: *jobID}
	if *resume && *ckptDir == "" {
		fatal(errors.New("-resume requires -checkpoint-dir"))
	}
	if *jobID != "" && *ckptDir == "" {
		fatal(errors.New("-job requires -checkpoint-dir"))
	}
	sigCtx, stopSignals := watchSignals(context.Background(), *grace)
	defer stopSignals()
	cfg.Context = sigCtx
	cfg.Deadline = *deadline
	ctx, stopDeadline := cfg.RunContext()
	defer stopDeadline()
	cfg.Context = ctx
	if *ckptDir != "" {
		resumeHint = fmt.Sprintf("focus: resume with -resume -checkpoint-dir %s", *ckptDir)
	}

	var pool *dist.Pool
	if *addrs != "" {
		pool, err = dist.DialPoolOpts(strings.Split(*addrs, ","), cfg.Dist)
	} else {
		if *workers <= 0 {
			*workers = 1
		}
		pool, err = dist.NewLocalPoolOpts(*workers, assembly.NewService, cfg.Dist)
	}
	if err != nil {
		fatal(err)
	}
	defer pool.Close()

	var stages *focus.Stages
	if *distAlign {
		stages, err = focus.BuildStagesOnPool(reads, cfg, pool)
	} else {
		stages, err = focus.BuildStages(reads, cfg)
	}
	if err != nil {
		fatal(err)
	}

	res, err := stages.Assemble(pool, *parts, pool.Size(), 1)
	if err != nil {
		fatal(err)
	}

	var contigs []dna.Read
	for i, c := range res.Contigs {
		contigs = append(contigs, dna.Read{ID: fmt.Sprintf("contig_%05d len=%d", i, len(c)), Seq: c})
	}
	of, err := os.Create(*out)
	if err != nil {
		fatal(err)
	}
	defer of.Close()
	if err := dna.WriteFASTA(of, contigs, 80); err != nil {
		fatal(err)
	}

	if !*quietFlag {
		fmt.Printf("reads in:         %d\n", len(reads))
		fmt.Printf("reads kept (+rc): %d\n", len(stages.Reads))
		fmt.Printf("overlaps:         %d\n", len(stages.Records))
		fmt.Printf("overlap graph:    %d nodes, %d edges\n", stages.G0.NumNodes(), stages.G0.NumEdges())
		fmt.Printf("graph levels:     %d\n", len(stages.MSet.Levels))
		fmt.Printf("hybrid graph:     %d nodes, %d edges\n", stages.Hyb.G.NumNodes(), stages.Hyb.G.NumEdges())
		fmt.Printf("trim removed:     %d transitive, %d contained, %d false edges, %d tips/bubbles\n",
			res.Trim.TransitiveEdges, res.Trim.ContainedNodes, res.Trim.FalseEdges, res.Trim.DeadEndNodes)
		fmt.Printf("contigs:          %d (N50 %d bp, max %d bp, %d bases)\n",
			res.Stats.NumContigs, res.Stats.N50, res.Stats.MaxContig, res.Stats.TotalBases)
		if *variants {
			fmt.Printf("variants:         %d called\n", len(res.Variants))
			for _, va := range res.Variants {
				fmt.Printf("  %s between nodes %d/%d (cov %d/%d, identity %.3f, %d mismatches)\n",
					va.Kind, va.AlleleA, va.AlleleB, va.CovA, va.CovB, va.Identity, va.Mismatches)
			}
		}
		fmt.Printf("wrote %s\n", *out)
	}
}

// errorLine is err as the command reports it, under the program's name
// once: the facade's errors already start with it.
func errorLine(err error) string {
	msg := err.Error()
	if !strings.HasPrefix(msg, "focus: ") {
		msg = "focus: " + msg
	}
	return msg
}

// resumeHint, set once checkpointing is configured, is printed when an
// interrupted run leaves a resumable checkpoint behind.
var resumeHint string

func fatal(err error) {
	fmt.Fprintln(os.Stderr, errorLine(err))
	if focus.IsInterrupted(err) {
		if resumeHint != "" {
			fmt.Fprintln(os.Stderr, resumeHint)
		}
		os.Exit(exitResumable)
	}
	os.Exit(1)
}
