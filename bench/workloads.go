package main

import (
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync/atomic"
	"time"

	focus "focus"
	"focus/internal/align"
	"focus/internal/assembly"
	"focus/internal/dist"
	"focus/internal/dna"
	"focus/internal/eval"
	"focus/internal/jobs"
	"focus/internal/overlap"
	"focus/internal/simulate"
)

// Input sizes at -scale 1. ISSUE 11 sized them for 30–60 s runs; the
// acceptance driver allows about 30 s per run including three set-ups, so
// they are cut to what gives ten or so iterations in -seconds (README.md).
const (
	metaReadsScale   = 1.0   // PaperDataSet(2, ·)
	metaTCPScale     = 0.7   // PaperDataSet(2, ·)
	serveScale       = 0.4   // PaperDataSet(1..3, ·)
	ksweepGenomeLen  = 80000 // SingleGenome(·)
	metaCoverage     = 8.0
	ksweepCoverage   = 30.0
	adapterLen       = 8 // PaperReadConfig's adapter, trimmed by Preprocess.Trim5
	metaK            = 16
	serveK           = 8
	serveMaxRunning  = 2
	alignSamplePairs = 10000
)

var ksweepKs = []int{1, 2, 4, 8, 16, 32, 64}

// floor is the quality an operation's output must reach on any seed.
type floor struct {
	minGenomeFractionPct     float64
	maxMisassembliesPerMbase float64 // per Mbase of reference
}

// workload is one set of inputs and the timed region run on it.
type workload struct {
	name  string
	floor floor
	setup func(o options) (runner, error)
}

// The names are fixed; later issues cite them. BENCHMARK.json records why
// each exists.
var workloads = []workload{
	{"meta_reads", floor{60, 400}, setupMetaReads},
	{"genome_ksweep", floor{90, 50}, setupKSweep},
	{"meta_tcp", floor{60, 400}, setupMetaTCP},
	{"serve_multijob", floor{60, 400}, setupServe},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// op is one operation: an iteration (a job, for serve_multijob) and the
// contig sets it produced.
type op struct {
	sets [][][]byte
	err  error
}

type inputStats struct {
	Reads   int   `json:"reads"`
	Bases   int64 `json:"bases"`
	Records int   `json:"records"`
}

// runner is a set-up workload instance.
type runner interface {
	// iterate runs the timed region once through the public facade with
	// tracing off, measured by m.
	iterate(m *meter) (sample, []op)
	// traced runs the same sequence once more with a span around each call
	// into a layer, collecting the per-layer counts into ls.
	traced(tr *tracer, ls *layerStats) []op
	// extras measures the per-layer numbers that sit outside the traced
	// total (candidate generation alone, the alignment kernel alone, the
	// single-core run).
	extras(ls *layerStats, medianWallS float64) error
	// evalContigs picks the contigs of one iteration's operations that are
	// scored against the references.
	evalContigs(ops []op) [][]byte
	common() *instance
	close() error
}

// instance is what every set-up workload has.
type instance struct {
	wire    atomic.Int64 // bytes over every worker connection, both directions
	refs    []eval.Reference
	input   inputStats
	closers []func() error // run in reverse by close
}

func (in *instance) common() *instance { return in }

// countWire is a dist.Options.WrapConn that counts into in.wire.
func (in *instance) countWire(_ int, c net.Conn) net.Conn { return countConn{c, &in.wire} }

func (in *instance) close() error {
	var errs []error
	for i := len(in.closers) - 1; i >= 0; i-- {
		errs = append(errs, in.closers[i]())
	}
	in.closers = nil
	return errors.Join(errs...)
}

// simulated is one generated data set.
type simulated struct {
	reads []dna.Read
	bases int64
	refs  []eval.Reference
}

// simulateInput builds the community and samples its reads; readSeed is
// derived from -seed, so the same seed gives the same reads.
func simulateInput(spec simulate.CommunitySpec, id int, coverage float64, readSeed int64) (simulated, error) {
	com, err := simulate.BuildCommunity(spec)
	if err != nil {
		return simulated{}, err
	}
	rc := simulate.PaperReadConfig(id, coverage)
	rc.Seed = readSeed
	rs, err := simulate.SimulateReads(com, rc)
	if err != nil {
		return simulated{}, err
	}
	in := simulated{reads: rs.Reads}
	for _, r := range rs.Reads {
		in.bases += int64(len(r.Seq))
	}
	for _, g := range com.Genomes {
		in.refs = append(in.refs, eval.Reference{Name: spec.Name + "/" + g.ID, Seq: g.Seq})
	}
	return in, nil
}

func baseConfig() focus.Config {
	cfg := focus.DefaultConfig()
	cfg.Preprocess.Trim5 = adapterLen
	return cfg
}

// pipelineRunner serves the three workloads that run one pipeline per
// iteration; they differ in run (the facade calls) and in the replaySpec.
type pipelineRunner struct {
	instance
	cfg  focus.Config
	spec replaySpec
	// singleCore marks the workload that also measures par.speedup.
	singleCore bool
	// run is the timed region; it notes in input.Records how many overlap
	// records the pipeline worked on.
	run func() op
}

func newPipelineRunner(in simulated) *pipelineRunner {
	r := &pipelineRunner{cfg: baseConfig()}
	r.refs = in.refs
	r.input = inputStats{Reads: len(in.reads), Bases: in.bases}
	return r
}

func (r *pipelineRunner) iterate(m *meter) (sample, []op) {
	m.start()
	o := r.run()
	return m.stop(), []op{o}
}

func (r *pipelineRunner) traced(tr *tracer, ls *layerStats) []op {
	sets, err := replay(tr, r.spec, ls)
	return []op{{sets: sets, err: err}}
}

// evalContigs scores the last contig set: the only one, or the sweep's
// highest k.
func (r *pipelineRunner) evalContigs(ops []op) [][]byte {
	sets := ops[0].sets
	return sets[len(sets)-1]
}

func (r *pipelineRunner) extras(ls *layerStats, medianWallS float64) error {
	reads, records := ls.reads, ls.records
	if r.spec.records == nil {
		// Candidate generation alone: everything the overlap stage does up
		// to, but excluding, alignment verification.
		t0 := time.Now()
		cands, err := overlap.CountCandidates(reads, max(r.cfg.Subsets, 1), r.cfg.Overlap)
		if err != nil {
			return err
		}
		ls.m["overlap.candgen_s"] = time.Since(t0).Seconds()
		ls.m["overlap.candidates"] = float64(cands)
		if cands > 0 {
			ls.m["overlap.accept_ratio"] = ls.m["overlap.records"] / float64(cands)
		}
	}
	// The scratch-owned banded kernel over read pairs sampled evenly from
	// the accepted records.
	if n := min(len(records), alignSamplePairs); n > 0 {
		var scr align.Scratch
		step := len(records) / n
		t0 := time.Now()
		for i := 0; i < n; i++ {
			rec := records[i*step]
			scr.OverlapOnDiagonal(reads[rec.A].Seq, reads[rec.B].Seq, int(rec.Diag), r.cfg.Overlap.Align)
		}
		ls.m["align.ns_per_call"] = float64(time.Since(t0).Nanoseconds()) / float64(n)
	}
	if r.singleCore {
		// A one-core machine cannot show a speed-up; the serial run is the
		// run, so the ratio is 1 by definition there.
		ls.m["par.speedup"], ls.m["par.efficiency"] = 1, 1
		if nproc > 1 {
			serialS, err := r.runSingleCore()
			if err != nil {
				return err
			}
			ls.m["par.speedup"] = serialS / medianWallS
			ls.m["par.efficiency"] = serialS / medianWallS / float64(nproc)
		}
	}
	return nil
}

func setupMetaReads(o options) (runner, error) {
	spec, err := simulate.PaperDataSet(2, metaReadsScale*o.scale)
	if err != nil {
		return nil, err
	}
	in, err := simulateInput(spec, 2, metaCoverage, o.seed)
	if err != nil {
		return nil, err
	}
	r := newPipelineRunner(in)
	r.singleCore = true
	r.cfg.Dist.WrapConn = r.countWire
	r.run = func() op {
		res, s, err := focus.Assemble(in.reads, r.cfg, metaK, nproc)
		if err != nil {
			return op{err: err}
		}
		r.input.Records = len(s.Records)
		return op{sets: [][][]byte{res.Contigs}}
	}
	r.spec = replaySpec{raw: in.reads, cfg: r.cfg, ks: []int{metaK}, wire: &r.wire}
	return r, nil
}

// runSingleCore times one meta_reads iteration at GOMAXPROCS=1 with one
// worker, the baseline of par.speedup.
func (r *pipelineRunner) runSingleCore() (float64, error) {
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	t0 := time.Now()
	if _, _, err := focus.Assemble(r.spec.raw, r.cfg, metaK, 1); err != nil {
		return 0, err
	}
	return time.Since(t0).Seconds(), nil
}

func setupKSweep(o options) (runner, error) {
	spec := simulate.SingleGenome("ksweep", int(ksweepGenomeLen*o.scale), o.seed)
	in, err := simulateInput(spec, 1, ksweepCoverage, o.seed)
	if err != nil {
		return nil, err
	}
	r := newPipelineRunner(in)
	// The overlap stage runs once here and its records are kept: what
	// cmd/focus does with -save-overlaps / -load-overlaps.
	s0, err := focus.BuildStages(in.reads, r.cfg)
	if err != nil {
		return nil, err
	}
	records, numReads := s0.Records, len(s0.Reads)
	opt := r.cfg.Dist
	opt.WrapConn = r.countWire
	pool, err := dist.NewLocalPoolOpts(nproc, assembly.NewService, opt)
	if err != nil {
		return nil, fmt.Errorf("genome_ksweep: cannot start its workers: %w", err)
	}
	r.closers = append(r.closers, pool.Close)
	r.input.Records = len(records)
	r.run = func() op {
		s, err := focus.BuildStagesFromRecords(in.reads, records, numReads, r.cfg)
		if err != nil {
			return op{err: err}
		}
		var sets [][][]byte
		for _, k := range ksweepKs {
			res, err := s.Assemble(pool, k, nproc, 1)
			if err != nil {
				return op{err: fmt.Errorf("k=%d: %w", k, err)}
			}
			sets = append(sets, res.Contigs)
		}
		return op{sets: sets}
	}
	r.spec = replaySpec{raw: in.reads, cfg: r.cfg, ks: ksweepKs, pool: pool,
		records: records, numReads: numReads, wire: &r.wire}
	return r, nil
}

func setupMetaTCP(o options) (runner, error) {
	spec, err := simulate.PaperDataSet(2, metaTCPScale*o.scale)
	if err != nil {
		return nil, err
	}
	in, err := simulateInput(spec, 2, metaCoverage, o.seed)
	if err != nil {
		return nil, err
	}
	r := newPipelineRunner(in)
	r.cfg.Assembly.Stateful = true
	// Each worker is what cmd/focus-worker constructs, on a loopback
	// listener of its own; the listener counts the bytes.
	var addrs []string
	for i := 0; i < nproc; i++ {
		srv, err := dist.NewServer(&assembly.Service{})
		if err == nil {
			var lis net.Listener
			if lis, err = net.Listen("tcp", "127.0.0.1:0"); err == nil {
				addrs = append(addrs, lis.Addr().String())
				served := make(chan struct{})
				go func() {
					defer close(served)
					_ = srv.Serve(countListener{lis, &r.wire}) // returns ErrServerClosed on Shutdown
				}()
				r.closers = append(r.closers, func() error {
					srv.Shutdown(5 * time.Second)
					<-served
					return nil
				})
			}
		}
		if err != nil {
			return nil, errors.Join(fmt.Errorf("meta_tcp: cannot start worker %d: %w", i, err), r.close())
		}
	}
	pool, err := dist.DialPoolOpts(addrs, r.cfg.Dist)
	if err != nil {
		return nil, errors.Join(fmt.Errorf("meta_tcp: cannot dial its workers: %w", err), r.close())
	}
	r.closers = append(r.closers, pool.Close)
	r.run = func() op {
		s, err := focus.BuildStagesOnPool(in.reads, r.cfg, pool)
		if err != nil {
			return op{err: err}
		}
		r.input.Records = len(s.Records)
		res, err := s.Assemble(pool, metaK, nproc, 1)
		if err != nil {
			return op{err: err}
		}
		return op{sets: [][][]byte{res.Contigs}}
	}
	r.spec = replaySpec{raw: in.reads, cfg: r.cfg, ks: []int{metaK}, pool: pool,
		alignOnPool: true, wire: &r.wire}
	return r, nil
}

// serveRunner is serve_multijob: six FASTQ jobs through the resident
// master, two in flight.
type serveRunner struct {
	instance          // input counts all six jobs' reads and bases
	paths    []string // one FASTQ per job
	cfg      focus.Config
	pool     *dist.Pool
}

func setupServe(o options) (runner, error) {
	r := &serveRunner{cfg: baseConfig()}
	r.cfg.Assembly.Stateful = true
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(o.outDir, "fastq-")
	if err != nil {
		return nil, err
	}
	r.closers = append(r.closers, func() error { return os.RemoveAll(dir) })
	var sets []string
	for id := 1; id <= 3; id++ {
		spec, err := simulate.PaperDataSet(id, serveScale*o.scale)
		if err != nil {
			return nil, errors.Join(err, r.close())
		}
		in, err := simulateInput(spec, id, metaCoverage, o.seed+int64(id))
		if err != nil {
			return nil, errors.Join(err, r.close())
		}
		path := filepath.Join(dir, fmt.Sprintf("D%d.fastq", id))
		if err := writeFASTQ(path, in.reads); err != nil {
			return nil, errors.Join(err, r.close())
		}
		sets = append(sets, path)
		// Each data set is submitted twice.
		r.input.Reads += 2 * len(in.reads)
		r.input.Bases += 2 * in.bases
		r.refs = append(r.refs, in.refs...)
	}
	r.paths = append(sets, sets...)
	opt := r.cfg.Dist
	opt.WrapConn = r.countWire
	r.pool, err = dist.NewLocalPoolOpts(nproc, assembly.NewService, opt)
	if err != nil {
		return nil, errors.Join(fmt.Errorf("serve_multijob: cannot start its workers: %w", err), r.close())
	}
	r.closers = append(r.closers, r.pool.Close)
	return r, nil
}

func writeFASTQ(path string, reads []dna.Read) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := dna.WriteFASTQ(f, reads); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// batch is one closed batch: all jobs submitted at once, timed from the
// first Submit to the last Wait.
type batch struct {
	ops        []op
	statuses   []jobs.Status
	start, end time.Time
	snapshot   jobs.MetricsSnapshot
}

func (r *serveRunner) runBatch(m *meter) (sample, batch, error) {
	srv, err := jobs.NewServer(r.pool, jobs.Options{MaxRunning: serveMaxRunning, Template: r.cfg})
	if err != nil {
		return sample{}, batch{}, err
	}
	defer srv.Close()
	b := batch{ops: make([]op, len(r.paths)), statuses: make([]jobs.Status, len(r.paths))}
	ids := make([]string, len(r.paths))
	m.start()
	b.start = time.Now()
	for i, p := range r.paths {
		ids[i], b.ops[i].err = srv.Submit(jobs.Spec{Name: filepath.Base(p), InputPath: p, K: serveK, MaxWorkers: 1, Seed: 1})
	}
	for i, id := range ids {
		if b.ops[i].err == nil {
			b.ops[i].err = srv.Wait(id)
		}
	}
	b.end = time.Now()
	s := m.stop()
	for i, id := range ids {
		if b.ops[i].err != nil {
			continue
		}
		contigs, err := srv.Result(id)
		b.ops[i] = op{sets: [][][]byte{contigs}, err: err}
		if st, err := srv.Status(id); err == nil {
			b.statuses[i] = st
		}
	}
	b.snapshot = srv.Metrics().Snapshot()
	return s, b, nil
}

func (r *serveRunner) iterate(m *meter) (sample, []op) {
	s, b, err := r.runBatch(m)
	if err != nil {
		return s, []op{{err: err}}
	}
	return s, b.ops
}

// traced cannot replay the resident master from outside: its spans come
// from the jobs' Status timestamps and the registry snapshot.
func (r *serveRunner) traced(tr *tracer, ls *layerStats) []op {
	_, b, err := r.runBatch(&meter{wire: &r.wire})
	if err != nil {
		return []op{{err: err}}
	}
	// Status timestamps are wall-clock nanoseconds; drop the monotonic
	// reading of our own clock so every span is on the same one.
	root := tr.add(spanIteration, "bench", b.start.Round(0), b.end.Round(0), -1, 0)
	var waits, runs []float64
	for i, st := range b.statuses {
		if st.StartedAt == 0 || st.FinishedAt == 0 {
			continue
		}
		sub, start, fin := time.Unix(0, st.SubmittedAt), time.Unix(0, st.StartedAt), time.Unix(0, st.FinishedAt)
		tr.add("jobs.queued "+st.ID, "jobs", sub, start, root, i+1)
		tr.add("jobs.run "+st.ID, "jobs", start, fin, root, i+1)
		waits = append(waits, start.Sub(sub).Seconds())
		runs = append(runs, fin.Sub(start).Seconds())
	}
	ls.m["jobs.queue_wait_p50_s"] = median(waits)
	if len(waits) > 0 {
		ls.m["jobs.queue_wait_max_s"] = slices.Max(waits)
	}
	ls.m["jobs.run_p50_s"] = median(runs)
	ls.m["jobs.completed"] = float64(b.snapshot.Counters["jobs_done_total"])
	ls.m["jobs.rejected"] = float64(b.snapshot.Counters["jobs_rejected_total"])
	// The registry's per-phase latency sums over the batch's jobs.
	for metric, phase := range map[string]string{
		"assembly.transitive_s":  "transitive",
		"assembly.containment_s": "containment",
		"assembly.errors_s":      "errors",
		"assembly.traverse_s":    "paths",
	} {
		ls.m[metric] = b.snapshot.Histograms["assembly_phase_seconds_"+phase].SumSeconds
	}
	h := r.pool.Health()
	ls.m["dist.evictions"] = float64(h.Evictions)
	ls.m["dist.reconnects"] = float64(h.Reconnects)
	ls.m["dist.kicks"] = float64(h.Kicks)
	return b.ops
}

func (r *serveRunner) extras(*layerStats, float64) error { return nil }

// evalContigs pools the first submission of each data set.
func (r *serveRunner) evalContigs(ops []op) [][]byte {
	var all [][]byte
	for _, o := range ops[:len(ops)/2] {
		for _, set := range o.sets {
			all = append(all, set...)
		}
	}
	return all
}
