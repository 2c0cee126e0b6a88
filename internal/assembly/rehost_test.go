package assembly

import (
	"fmt"
	"net"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"focus/internal/dist"
	"focus/internal/metrics"
	"focus/internal/testutil"
)

// TestRehostAfterPinnedWorkerLoss is the tentpole acceptance test: in the
// stateful protocol a pinned worker dies mid-run (after a varying healthy
// prefix, so the loss lands during Load, a trim phase, or traversal
// depending on the sweep point), its partitions are re-hosted onto the
// survivor from the master's authoritative graph, and the run completes
// WITHOUT falling back to local execution — byte-identical to a no-fault
// baseline.
func TestRehostAfterPinnedWorkerLoss(t *testing.T) {
	defer testutil.NoLeaks(t)
	const k = 4
	want := healthyBaseline(t, k)

	for healthy := 0; healthy <= 6; healthy++ {
		t.Run(fmt.Sprintf("healthy=%d", healthy), func(t *testing.T) {
			hang := dist.ChaosConfig{
				Seed:      11,
				FirstSafe: 1 + healthy, // the handshake ack, then healthy responses before the worker wedges
				HangProb:  1,
				HangFor:   2 * time.Second,
			}
			pool, err := dist.NewLocalChaosPool(2, NewService, dist.Options{
				CallTimeout: 200 * time.Millisecond,
				MaxFailures: 1,
				Logf:        t.Logf,
			}, func(w int) *dist.ChaosConfig {
				if w == 1 {
					return &hang
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			defer pool.Close()

			d := chaosPipeline(t, pool, k)
			got, err := fullRun(t, d)
			if err != nil {
				t.Fatalf("stateful run with dying pinned worker failed: %v", err)
			}
			// Closing the run closes its connections; it sends no RPC,
			// so the lost worker cannot fail it.
			if err := d.Close(); err != nil {
				t.Fatalf("Close after a survived eviction: %v", err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("re-hosted run diverged from healthy baseline:\ngot  %+v\nwant %+v", got, want)
			}
			if d.localOnly {
				t.Fatal("driver fell back to local mode despite a surviving worker")
			}
			// Every partition must have ended up placed on a healthy worker.
			for p, w := range d.placement {
				if !pool.Healthy(w) {
					t.Fatalf("partition %d left placed on unhealthy worker %d", p, w)
				}
			}
		})
	}
}

// TestRehostAllWorkersLostFallsBack: when NO worker survives, the stateful
// protocol's terminal safety net — sticky local fallback — still produces
// baseline output, and the driver records that it degraded by failure, not
// by choice.
func TestRehostAllWorkersLostFallsBack(t *testing.T) {
	defer testutil.NoLeaks(t)
	const k = 4
	want := healthyBaseline(t, k)

	pool, err := dist.NewLocalChaosPool(2, NewService, dist.Options{
		CallTimeout: 150 * time.Millisecond,
		MaxFailures: 1,
		Logf:        t.Logf,
	}, func(w int) *dist.ChaosConfig {
		return &dist.ChaosConfig{Seed: 13 + int64(w), FirstSafe: 1, HangProb: 1, HangFor: 2 * time.Second}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	d := chaosPipeline(t, pool, k)
	got, err := fullRun(t, d)
	if err != nil {
		t.Fatalf("stateful run with all workers dead failed (terminal fallback broken): %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("local fallback diverged from healthy baseline:\ngot  %+v\nwant %+v", got, want)
	}
	if !d.localOnly {
		t.Fatal("driver still on the pool, want degraded by failure")
	}
}

// reconnectTrap is shared by every service of the pool of
// TestRehostOntoReconnectedWorker: conns counts the services made (the
// pool's registration check, then one per connection: the run's own to
// workers 0 and 1, then the fleet's probe of worker 1 and the run's
// redial of it), gate holds the probe and the redial until the test
// opens it, release frees the Phase that hung on worker 1, and loads
// lists the partitions Loaded on a connection made after the cut (only
// the run's carries Loads).
type reconnectTrap struct {
	conns   atomic.Int32
	gate    chan struct{}
	release chan struct{}
	mu      sync.Mutex
	loads   []int32
}

// reconnectTrapService is one connection's service: conn 2 hangs its
// first Containment Phase (the other waits behind it), conn 1 answers its
// Errors Phases of partitions 0 and 2 "not loaded", and the connections
// made after the cut (conn 3 and later) record their Loads.
type reconnectTrapService struct {
	Service
	conn int32
	trap *reconnectTrap
	hung atomic.Bool
}

func (s *reconnectTrapService) Load(args *LoadArgs, reply *dist.Ack) error {
	if s.conn >= 3 {
		s.trap.mu.Lock()
		s.trap.loads = append(s.trap.loads, args.Sub.Part)
		s.trap.mu.Unlock()
	}
	return s.Service.Load(args, reply)
}

func (s *reconnectTrapService) Phase(args *PhaseArgs, reply *PhaseReply) error {
	switch {
	case s.conn == 2 && args.Phase == "Containment" && s.hung.CompareAndSwap(false, true):
		<-s.trap.release
	case s.conn == 1 && args.Phase == "Errors" && args.Part%2 == 0:
		s.mu.Lock()
		delete(s.parts, args.Part)
		s.mu.Unlock()
	}
	return s.Service.Phase(args, reply)
}

// TestRehostOntoReconnectedWorker: a reconnected worker gets partitions
// only by re-host. Worker 1's connection is cut mid-run (a hung Phase) and
// its partitions move to worker 0 while it reconnects; it comes back
// empty and keeps nothing. Later worker 0 loses partitions 0 and 2 while
// holding all four, and the least-loaded rule re-Loads exactly those two
// onto worker 1. The run ends byte-identical to the healthy baseline.
func TestRehostOntoReconnectedWorker(t *testing.T) {
	defer testutil.NoLeaks(t)
	const k = 4
	want := healthyBaseline(t, k)

	trap := &reconnectTrap{gate: make(chan struct{}), release: make(chan struct{})}
	defer close(trap.release)
	pool, err := dist.NewLocalPoolOpts(2, func() interface{} {
		n := trap.conns.Add(1) - 1
		if n >= 3 {
			<-trap.gate
		}
		return &reconnectTrapService{conn: n, trap: trap}
	}, dist.Options{CallTimeout: 300 * time.Millisecond, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	// A probe waiting at the gate would hold pool.Close.
	var openGate sync.Once
	defer openGate.Do(func() { close(trap.gate) })
	d := chaosPipeline(t, pool, k)
	reg := metrics.NewRegistry()
	d.SetMetrics(reg)

	var st TrimStats
	if err := d.TrimTransitive(&st); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(d.placement, []int{0, 1, 0, 1}) {
		t.Fatalf("initial placement %v, want round robin", d.placement)
	}
	// Worker 1's hung Phase is cut; the fleet's probe of it waits at the
	// gate, so partitions 1 and 3 move to worker 0.
	if err := d.TrimContainment(&st); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(d.placement, []int{0, 0, 0, 0}) {
		t.Fatalf("placement after worker 1's outage %v, want all on worker 0", d.placement)
	}
	openGate.Do(func() { close(trap.gate) })
	for deadline := time.Now().Add(5 * time.Second); !d.sess.Healthy(1); time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("worker 1 never reconnected")
		}
	}
	if err := d.TrimErrors(&st); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(d.placement, []int{1, 0, 1, 0}) {
		t.Fatalf("placement after worker 0's loss %v, want partitions 0 and 2 on worker 1", d.placement)
	}
	paths, _, err := d.TraverseTimed()
	if err != nil {
		t.Fatal(err)
	}
	got := runOutcome{
		Transitive: st.TransitiveEdges,
		Contained:  st.ContainedNodes,
		False:      st.FalseEdges,
		DeadEnds:   st.DeadEndNodes,
		Paths:      paths,
		Contigs:    d.BuildContigs(paths),
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("run diverged from the healthy baseline:\ngot  %+v\nwant %+v", got, want)
	}
	trap.mu.Lock()
	loads := slices.Sorted(slices.Values(trap.loads))
	trap.mu.Unlock()
	if !reflect.DeepEqual(loads, []int32{0, 2}) {
		t.Fatalf("reconnected worker 1 was Loaded %v, want only the re-hosted partitions [0 2]", loads)
	}
	for p, w := range d.placement {
		if !d.sess.Healthy(w) {
			t.Fatalf("partition %d left placed on unhealthy worker %d", p, w)
		}
	}
	if d.localOnly {
		t.Fatal("degraded to local execution")
	}
	if n := reg.Counter("assembly_rehost_total").Value(); n != 4 {
		t.Fatalf("%d re-hosts, want 4 (partitions 1 and 3, then 0 and 2)", n)
	}
}

// TestRehostRoundsExhausted: when every healthy worker keeps failing Load,
// the re-host loop gives up after a bounded number of rounds instead of
// spinning, and the terminal fallback still completes the run.
func TestRehostRoundsExhausted(t *testing.T) {
	defer testutil.NoLeaks(t)
	const k = 2
	want := healthyBaseline(t, k)

	// Workers answer the first two responses (connection setup / early
	// Loads) then wedge forever; reconnects are off, so once both are
	// evicted the pool is unusable and the driver must fall back.
	pool, err := dist.NewLocalChaosPool(2, NewService, dist.Options{
		CallTimeout: 150 * time.Millisecond,
		MaxFailures: 1,
		Logf:        t.Logf,
	}, func(w int) *dist.ChaosConfig {
		return &dist.ChaosConfig{Seed: 29 + int64(w), FirstSafe: 1, HangProb: 1, HangFor: 2 * time.Second}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	d := chaosPipeline(t, pool, k)
	got, err := fullRun(t, d)
	if err != nil {
		t.Fatalf("run failed instead of falling back: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("fallback run diverged:\ngot  %+v\nwant %+v", got, want)
	}
	if !d.localOnly {
		t.Fatal("driver still on the pool, want degraded by failure")
	}
}

// TestRehostCountersSkipFirstLoad: a partition whose first Load fails
// never had a home, so moving it to another worker is no re-host. Worker
// 1's connection breaks on the reply to its first Load and it is evicted;
// worker 0 takes all four partitions. Neither re-host counter moves, and
// the run ends byte-identical to the healthy baseline.
func TestRehostCountersSkipFirstLoad(t *testing.T) {
	defer testutil.NoLeaks(t)
	const k = 4
	want := healthyBaseline(t, k)

	pool, err := dist.NewLocalChaosPool(2, NewService, dist.Options{
		MaxFailures: 1,
		Logf:        t.Logf,
	}, func(w int) *dist.ChaosConfig {
		if w == 1 {
			return &dist.ChaosConfig{Seed: 5, FirstSafe: 1, ResetProb: 1}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	d := chaosPipeline(t, pool, k)
	reg := metrics.NewRegistry()
	d.SetMetrics(reg)
	got, err := fullRun(t, d)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("run diverged from healthy baseline:\ngot  %+v\nwant %+v", got, want)
	}
	if d.localOnly {
		t.Fatal("driver fell back to local mode despite a surviving worker")
	}
	if pool.Healthy(1) {
		t.Fatal("worker 1 still healthy: its Load never failed")
	}
	for _, name := range []string{"assembly_rehost_total", "assembly_rehost_failed_total"} {
		if n := reg.Counter(name).Value(); n != 0 {
			t.Errorf("%s = %d after failed first Loads, want 0", name, n)
		}
	}
}

// serveTCP starts a long-lived TCP worker for service, as focus-worker
// does, and returns its address and server (the caller shuts it down).
func serveTCP(t *testing.T, service interface{}) (string, *dist.Server) {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv, err := dist.NewServer(service)
	if err != nil {
		lis.Close()
		t.Fatal(err)
	}
	go func() { _ = srv.Serve(lis) }()
	return lis.Addr().String(), srv
}

// TestRehostTCPWorkerServesMastersInTurn: one long-lived TCP worker serves
// two masters in turn. The first dies without Driver.Close: its pool's
// Close closes the run's connections, and its partitions go with them.
// The second master's Loads all land, and its run is the clean run.
func TestRehostTCPWorkerServesMastersInTurn(t *testing.T) {
	defer testutil.NoLeaks(t)
	const k = 4
	want := healthyBaseline(t, k)
	addr, srv := serveTCP(t, &Service{})
	defer srv.Shutdown(0)

	for master := 1; master <= 2; master++ {
		pool, err := dist.DialPoolOpts([]string{addr}, dist.Options{Logf: t.Logf})
		if err != nil {
			t.Fatal(err)
		}
		d := chaosPipeline(t, pool, k)
		reg := metrics.NewRegistry()
		d.SetMetrics(reg)
		got, err := fullRun(t, d)
		pool.Close() // no d.Close: the master dies with its partitions loaded
		if err != nil {
			t.Fatalf("master %d: %v", master, err)
		}
		if n := reg.Counter("assembly_rehost_failed_total").Value(); n != 0 {
			t.Fatalf("master %d: %d failed re-host(s)", master, n)
		}
		if d.localOnly {
			t.Fatalf("master %d: degraded to local execution", master)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("master %d diverged from the clean run:\ngot  %+v\nwant %+v", master, got, want)
		}
	}
}

// lateLoad holds the first Load of one partition until its call has been
// cut and a Phase has applied a delta to the copy re-hosted in its place;
// then the held Load lands, and the Phase returns only after it has.
type lateLoad struct {
	part    int32
	held    atomic.Bool
	release chan struct{}
	once    sync.Once
	landed  chan struct{}
}

func (l *lateLoad) let() { l.once.Do(func() { close(l.release) }) }

// lateLoadService is a worker whose Loads and Phases report to a lateLoad
// shared by all its connections.
type lateLoadService struct {
	Service
	late *lateLoad
}

func (s *lateLoadService) Load(args *LoadArgs, reply *dist.Ack) error {
	if args.Sub.Part == s.late.part && s.late.held.CompareAndSwap(false, true) {
		<-s.late.release
		defer close(s.late.landed)
	}
	return s.Service.Load(args, reply)
}

func (s *lateLoadService) Phase(args *PhaseArgs, reply *PhaseReply) error {
	err := s.Service.Phase(args, reply)
	if args.Part == s.late.part && s.late.held.Load() && len(args.Delta.RemovedNodes)+len(args.Delta.RemovedEdges) > 0 {
		s.late.let()
		<-s.late.landed
	}
	return err
}

// TestRehostTCPLateLoad: a Load answers only after its call was cut, and
// lands after the re-hosted copy of its partition has taken a phase delta,
// on the same TCP worker (the pool's two slots dial one address). The late
// copy lands in the severed connection's table, so no later phase reads
// it, and the run is the clean run.
func TestRehostTCPLateLoad(t *testing.T) {
	defer testutil.NoLeaks(t)
	const k = 4
	// The D2 analogue: partition 0 takes a delta in the Containment phase.
	dg, labels, _ := buildPipeline(t, paperReads(t, 2), k)
	run := func(pool *dist.Pool) (*Driver, runOutcome) {
		t.Helper()
		d, err := NewDriver(pool, dg.Clone(), labels, k, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		got, err := fullRun(t, d)
		if err != nil {
			t.Fatal(err)
		}
		return d, got
	}
	clean, err := dist.NewLocalPool(2, NewService)
	if err != nil {
		t.Fatal(err)
	}
	_, want := run(clean)
	clean.Close()

	late := &lateLoad{part: 0, release: make(chan struct{}), landed: make(chan struct{})}
	addr, srv := serveTCP(t, &lateLoadService{late: late})
	defer srv.Shutdown(0)
	defer late.let() // a held Load must not outlive the test
	// Partition 0 is placed on slot 0. Its Load is cut after CallTimeout,
	// and MaxFailures 1 evicts slot 0, so the partition moves to slot 1
	// and stays there.
	pool, err := dist.DialPoolOpts([]string{addr, addr}, dist.Options{
		CallTimeout: 500 * time.Millisecond,
		MaxFailures: 1,
		Logf:        t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	d, got := run(pool)
	select {
	case <-late.landed:
	default:
		t.Fatal("the held Load never landed: no phase carried a delta to the re-hosted partition")
	}
	if d.placement[late.part] != 1 {
		t.Fatalf("partition %d ended on worker %d, want the survivor 1", late.part, d.placement[late.part])
	}
	if d.localOnly {
		t.Fatal("degraded to local execution")
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("run with a late Load diverged from the clean run:\ngot  %+v\nwant %+v", got, want)
	}
}
