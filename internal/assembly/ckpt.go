package assembly

import (
	"fmt"
	"log"

	"focus/internal/checkpoint"
	"focus/internal/dist"
)

// Phase-boundary checkpointing (DESIGN.md §11): after each graph-mutating
// phase is applied to the master's authoritative DiGraph, the driver
// serializes what a resume reads — graph, partition labels, the
// completed-phase list, and the accumulated trim counters — into
// an atomic, CRC-framed checkpoint file (internal/checkpoint). A killed
// master restarts with -resume: the newest valid checkpoint is loaded,
// completed phases are skipped (their counters replayed from the
// checkpoint), and the run continues with identical final output. The
// payload uses the same hand-written Wire encodings as the RPC protocol.

// CheckpointVersion is the payload schema version; bump on any encoding
// change so old files fail loudly instead of decoding garbage.
const CheckpointVersion = 4

// CheckpointState is the master's durable state at one phase boundary.
type CheckpointState struct {
	// Fingerprint identifies the input the frame was written for (the
	// caller's hash of its reads and configuration, EnableCheckpoint), so
	// that a resume can refuse another input's frames.
	Fingerprint uint64
	Done        []string  // completed graph-mutating phases, in order
	Stats       TrimStats // accumulated counters (task times are not persisted)
	K           int
	Labels      []int32
	Graph       *DiGraph
}

var _ dist.Wire = (*CheckpointState)(nil)

// AppendTo implements dist.Wire for the checkpoint payload.
func (cs *CheckpointState) AppendTo(dst []byte) []byte {
	dst = dist.AppendUvarint(dst, cs.Fingerprint)
	dst = dist.AppendVarint(dst, int64(cs.K))
	dst = dist.AppendLen(dst, len(cs.Done), cs.Done != nil)
	for _, s := range cs.Done {
		dst = dist.AppendString(dst, s)
	}
	dst = dist.AppendVarint(dst, int64(cs.Stats.TransitiveEdges))
	dst = dist.AppendVarint(dst, int64(cs.Stats.ContainedNodes))
	dst = dist.AppendVarint(dst, int64(cs.Stats.FalseEdges))
	dst = dist.AppendVarint(dst, int64(cs.Stats.DeadEndNodes))
	dst = dist.AppendInt32sDelta(dst, cs.Labels)
	g := cs.Graph
	n := g.NumNodes()
	dst = dist.AppendLen(dst, n, true)
	// Removed flags as a bitset.
	for i := 0; i < n; i += 8 {
		var b byte
		for j := 0; j < 8 && i+j < n; j++ {
			if g.Removed[i+j] {
				b |= 1 << j
			}
		}
		dst = append(dst, b)
	}
	for v := 0; v < n; v++ {
		dst = dist.AppendVarint(dst, g.Weight[v])
		dst = dist.AppendBool(dst, g.Contigs[v] != nil)
		dst = appendContig(dst, g.Contigs[v])
		dst = appendEdges(dst, g.Out[v])
	}
	return dst
}

// DecodeFrom implements dist.Wire. The In adjacency is rebuilt from Out:
// fresh construction sorts In[w] by From ascending and removals preserve
// relative order, so appending while scanning Out in ascending node order
// reproduces the pre-checkpoint In lists exactly.
func (cs *CheckpointState) DecodeFrom(src []byte) error {
	rd := dist.NewWireReader(src)
	cs.Fingerprint = rd.Uvarint()
	cs.K = int(rd.Varint())
	nd, present := rd.Len()
	cs.Done = nil
	if present {
		cs.Done = make([]string, 0, nd)
		for i := 0; i < nd && rd.Err() == nil; i++ {
			cs.Done = append(cs.Done, rd.String())
		}
	}
	cs.Stats = TrimStats{
		TransitiveEdges: int(rd.Varint()),
		ContainedNodes:  int(rd.Varint()),
		FalseEdges:      int(rd.Varint()),
		DeadEndNodes:    int(rd.Varint()),
	}
	cs.Labels = rd.Int32sDelta()
	n, _ := rd.Len()
	g := &DiGraph{
		Contigs: make([][]byte, n),
		Weight:  make([]int64, n),
		Removed: make([]bool, n),
		Out:     make([][]Edge, n),
		In:      make([][]Edge, n),
	}
	bits := rd.Bytes((n + 7) / 8)
	for v := 0; v < n && rd.Err() == nil; v++ {
		g.Removed[v] = bits[v/8]&(1<<(v%8)) != 0
		g.Weight[v] = rd.Varint()
		g.Contigs[v] = decodeContig(&rd, rd.Bool())
		g.Out[v] = decodeEdges(&rd)
	}
	if err := rd.Finish(); err != nil {
		cs.Graph = nil
		return err
	}
	for v := range g.Out {
		for _, e := range g.Out[v] {
			// Endpoints come off the wire; a To outside the decoded node
			// range means a corrupt frame, not a panic.
			if e.To < 0 || int(e.To) >= n {
				cs.Graph = nil
				return fmt.Errorf("assembly: checkpoint edge %d->%d outside %d nodes", e.From, e.To, n)
			}
			g.In[e.To] = append(g.In[e.To], e)
		}
	}
	cs.Graph = g
	return nil
}

// EnableCheckpoint turns on checkpointing into dir (created if missing):
// a frame at every graph-mutating phase boundary, stamped with the
// input's fingerprint. Call before the first Trim phase.
func (d *Driver) EnableCheckpoint(dir string, fingerprint uint64) {
	d.ckptDir, d.ckptFingerprint = dir, fingerprint
}

// notePhase records a completed graph-mutating phase and, with
// checkpointing on, writes it as checkpoint seq len(donePhases). The
// master graph mutates only between a phase's return and its notePhase,
// so every completed phase is on disk before the next one starts, and an
// interrupted run needs no checkpoint of its own on the way out. A
// checkpoint that cannot be written is an error — the caller asked for
// durability; silently dropping it would turn a crash into a full re-run.
func (d *Driver) notePhase(name string) error {
	d.donePhases = append(d.donePhases, name)
	if d.ckptDir == "" {
		return nil
	}
	cs := &CheckpointState{
		Fingerprint: d.ckptFingerprint,
		Done:        d.donePhases,
		Stats:       d.statsMirror,
		K:           d.K,
		Labels:      d.Labels,
		Graph:       d.G,
	}
	if err := checkpoint.Write(d.ckptDir, len(d.donePhases), CheckpointVersion, cs.AppendTo(nil)); err != nil {
		return fmt.Errorf("assembly: checkpoint after %s: %w", name, err)
	}
	return nil
}

// skipDone consumes a resume marker: true means the named phase completed
// before the checkpoint this driver resumed from and must be skipped.
func (d *Driver) skipDone(name string) bool {
	if !d.resumeDone[name] {
		return false
	}
	delete(d.resumeDone, name)
	return true
}

// LoadLatestCheckpoint loads and decodes the newest valid checkpoint in
// dir. Corrupt or truncated files are skipped with a logged warning (the
// next-older valid one is used); checkpoint.ErrNone means a fresh start,
// an ErrCorrupt-wrapping error means files exist but none can be trusted.
func LoadLatestCheckpoint(dir string) (*CheckpointState, error) {
	payload, seq, skipped, err := checkpoint.Latest(dir, CheckpointVersion)
	for _, s := range skipped {
		log.Printf("assembly: skipping unusable checkpoint: %v", s)
	}
	if err != nil {
		return nil, err
	}
	var cs CheckpointState
	if derr := cs.DecodeFrom(payload); derr != nil {
		return nil, fmt.Errorf("assembly: checkpoint %s (seq %d): payload decode: %w", dir, seq, derr)
	}
	return &cs, nil
}

// ResumeDriver reconstructs a driver from checkpointed state: the master
// graph, labels and counters come from the checkpoint, completed phases
// will be skipped (their counters replayed), and the remaining phases run
// normally — on the pool when one is given, locally otherwise. The final
// output is identical to an uninterrupted run.
func ResumeDriver(pool *dist.Pool, cs *CheckpointState, cfg Config) (*Driver, error) {
	if cs.Graph == nil {
		return nil, fmt.Errorf("assembly: resume: checkpoint has no graph")
	}
	d, err := NewDriver(pool, cs.Graph, cs.Labels, cs.K, cfg)
	if err != nil {
		return nil, fmt.Errorf("assembly: resume: %w", err)
	}
	d.donePhases = append([]string(nil), cs.Done...)
	d.resumeDone = make(map[string]bool, len(cs.Done))
	for _, name := range cs.Done {
		d.resumeDone[name] = true
	}
	d.statsMirror = cs.Stats
	log.Printf("assembly: resuming from checkpoint seq %d (phases done: %v)", len(cs.Done), cs.Done)
	return d, nil
}
