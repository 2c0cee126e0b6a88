// Package jobs is the multi-tenant resident master (DESIGN.md §15): a
// priority job queue with admission control multiplexing many concurrent
// assembly jobs onto one shared dist worker fleet. Each admitted job runs
// under its own quota (worker-view width, memory estimate, deadline), its
// own checkpoint namespace (independently killable and resumable) and its
// own cancellation cause. A job's view is a member mask over the fleet:
// it says where the job may run, and the job's run opens connections of
// its own to those workers (a dist.Session), which hold its
// partitions. A worker loss re-hosts only the affected jobs' partitions,
// and a killed or drained job severs only its own connections, so its
// co-tenants lose nothing. The Server's metrics registry and health
// snapshot are the
// operational surface, exposed over HTTP by Handler and scraped by the
// chaos tests as assertions.
package jobs

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"time"
)

// Admission errors. Every rejection wraps ErrAdmission so callers can
// distinguish "the server said no" from "the job ran and failed" with one
// errors.Is; the concrete wrapper says why (and maps to an HTTP status).
var (
	// ErrAdmission is the class of every admission rejection.
	ErrAdmission = errors.New("jobs: admission rejected")
	// ErrQueueFull rejects a submit when the queue is at QueueDepth.
	ErrQueueFull = fmt.Errorf("%w: queue full", ErrAdmission)
	// ErrQuota rejects a spec whose quota demands exceed what the server
	// can ever grant (more workers than the fleet, more memory than the
	// budget).
	ErrQuota = fmt.Errorf("%w: quota exceeds server capacity", ErrAdmission)
	// ErrDraining rejects every submit once Drain has begun.
	ErrDraining = fmt.Errorf("%w: server draining", ErrAdmission)
)

// Lifecycle errors. ErrKilled and ErrDrained are installed as the job
// context's cancellation cause; both wrap context.Canceled so the
// pipeline treats them as an interruption (resumable from its last
// checkpoint), not a failure.
var (
	// ErrKilled is the cancellation cause of an explicit per-job Kill.
	ErrKilled = fmt.Errorf("jobs: job killed: %w", context.Canceled)
	// ErrDrained is the cancellation cause when a server drain cuts a job
	// that outlived the grace period.
	ErrDrained = fmt.Errorf("jobs: server drained: %w", context.Canceled)
	// ErrNotFound reports an unknown job id.
	ErrNotFound = errors.New("jobs: no such job")
	// ErrTerminal rejects Kill on a job that already reached a terminal
	// state.
	ErrTerminal = errors.New("jobs: job already terminal")
	// ErrNotResumable rejects Resume on a job that is not terminal, is not
	// interrupt-shaped, or has no durable checkpoint namespace.
	ErrNotResumable = errors.New("jobs: job not resumable")
	// ErrNotDone rejects Result on a job that has not finished Done.
	ErrNotDone = errors.New("jobs: job not done")
)

// Spec is a job submission: what to assemble and under which quotas.
type Spec struct {
	// Name is a free-form label (shown in status; not unique).
	Name string `json:"name"`
	// InputPath is the reads file (FASTA/FASTQ) on the server's
	// filesystem.
	InputPath string `json:"input_path"`
	// K is the partition count for distributed trimming (<=0: 1).
	K int `json:"k"`
	// Priority orders the queue: higher runs first; FIFO within a
	// priority.
	Priority int `json:"priority"`
	// MaxWorkers caps the job's worker view (<=0: the whole fleet). A
	// value above the fleet size is an ErrQuota rejection: the quota
	// could never be granted.
	MaxWorkers int `json:"max_workers"`
	// MemoryMB is the job's declared memory estimate. Admission rejects
	// (ErrQuota) negative estimates and estimates above the server budget;
	// the scheduler holds a job while running jobs' estimates would exceed
	// the budget. 0 means unaccounted.
	MemoryMB int `json:"memory_mb"`
	// Deadline bounds the job's wall clock (0: unbounded) as a plain run
	// deadline: every stage and phase runs under it, and on expiry the
	// job ends Killed (resumable when it has a namespace).
	Deadline time.Duration `json:"deadline_ns"`
	// Seed is the partitioner seed the job's assembly runs with (0: 1,
	// the seed of the CLI and of focus.Assemble).
	Seed int64 `json:"seed"`
}

// State is a job's position in the lifecycle state machine
// (DESIGN.md §15): Queued → Running → {Done | Failed | Killed}; a
// Resumable terminal job can re-enter the queue via Resume.
type State int

const (
	// Queued: admitted, waiting for a scheduler slot.
	Queued State = iota
	// Running: executing on its worker view.
	Running
	// Done: completed successfully; its contigs are kept in its namespace
	// (in memory without one, until shutdown).
	Done
	// Failed: pipeline error (not an interruption).
	Failed
	// Killed: interrupted — explicit Kill, server drain, deadline or
	// stall. Resumable when a durable checkpoint namespace exists.
	Killed
)

func (s State) String() string {
	switch s {
	case Queued:
		return "queued"
	case Running:
		return "running"
	case Done:
		return "done"
	case Failed:
		return "failed"
	case Killed:
		return "killed"
	}
	return fmt.Sprintf("State(%d)", int(s))
}

// Terminal reports whether the state is final (Done, Failed or Killed).
func (s State) Terminal() bool { return s == Done || s == Failed || s == Killed }

// MarshalJSON renders the state by name for the HTTP surface.
func (s State) MarshalJSON() ([]byte, error) {
	return []byte(fmt.Sprintf("%q", s.String())), nil
}

// UnmarshalJSON parses the by-name rendering back (HTTP clients decode
// the same documents the server encodes).
func (s *State) UnmarshalJSON(b []byte) error {
	var name string
	if err := json.Unmarshal(b, &name); err != nil {
		return err
	}
	for cand := Queued; cand <= Killed; cand++ {
		if cand.String() == name {
			*s = cand
			return nil
		}
	}
	return fmt.Errorf("jobs: unknown state %q", name)
}

// Status is a job's externally visible state snapshot.
type Status struct {
	ID    string `json:"id"`
	Spec  Spec   `json:"spec"`
	State State  `json:"state"`
	// Error is the terminal error text ("" on success or while live).
	Error string `json:"error,omitempty"`
	// Resumable marks a Killed/Failed job whose checkpoint namespace can
	// continue via Resume.
	Resumable bool `json:"resumable,omitempty"`
	// Workers are the fleet worker ids of the job's view while running
	// (retained in terminal states for postmortems).
	Workers []int `json:"workers,omitempty"`
	// Attempts counts runs of this job id (1 on first run; +1 per
	// Resume).
	Attempts int `json:"attempts,omitempty"`
	// SubmittedAt/StartedAt/FinishedAt are unix nanos (0 = not yet).
	SubmittedAt int64 `json:"submitted_at,omitempty"`
	StartedAt   int64 `json:"started_at,omitempty"`
	FinishedAt  int64 `json:"finished_at,omitempty"`
	// Contigs/N50 summarize a Done result.
	Contigs int `json:"contigs,omitempty"`
	N50     int `json:"n50,omitempty"`
}
