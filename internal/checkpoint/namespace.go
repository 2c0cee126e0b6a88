package checkpoint

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// Namespace ownership (DESIGN.md §15). Two runs sharing one checkpoint
// directory would silently interleave their ckpt-* frames: each run's
// Write overwrites the other's sequence numbers, and a resume would load
// whichever graph happened to land last — byte-identical to *neither*
// run. Claim makes the collision loud: a directory is claimed for one
// owner id by an OWNER marker file, and any later claim under a
// different id fails with ErrNamespace instead of corrupting the frames.
// The resident master derives one sub-directory per job id, so every job
// checkpoints — and resumes — in isolation.

// ErrNamespace marks a checkpoint directory owned by a different job:
// resuming (or checkpointing) under the wrong id would mix two jobs'
// frames.
var ErrNamespace = errors.New("checkpoint: directory owned by a different job")

// ownerFile is the marker file holding the owning job id.
const ownerFile = "OWNER"

// ValidateID rejects owner/job ids that cannot safely name a directory
// or be round-tripped through the marker file.
func ValidateID(id string) error {
	switch {
	case id == "":
		return fmt.Errorf("checkpoint: empty job id")
	case id != strings.TrimSpace(id):
		return fmt.Errorf("checkpoint: job id %q has surrounding whitespace", id)
	case strings.ContainsAny(id, "/\\:\n\r\x00") || id == "." || id == "..":
		return fmt.Errorf("checkpoint: job id %q is not a safe path component", id)
	}
	return nil
}

// Claim marks dir as owned by job id, creating it if needed. Claiming an
// unowned directory writes the marker; re-claiming with the same id is
// an idempotent no-op (the resume path); claiming a directory owned by a
// different id fails with an error wrapping ErrNamespace — a stale or
// colliding namespace must never be silently reused. Pre-namespace
// directories (checkpoint frames but no marker) are adopted by the first
// claimer: the marker is added, and any *other* id fails from then on.
func Claim(dir, id string) error {
	if err := ValidateID(id); err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("checkpoint: claim %s: %w", dir, err)
	}
	path := filepath.Join(dir, ownerFile)
	data, err := os.ReadFile(path)
	switch {
	case err == nil:
		owner := strings.TrimSpace(string(data))
		if owner != id {
			return fmt.Errorf("%w: %s is owned by job %q, claimed as %q", ErrNamespace, dir, owner, id)
		}
		return nil
	case os.IsNotExist(err):
		// Fall through to write the marker.
	default:
		return fmt.Errorf("checkpoint: claim %s: %w", dir, err)
	}
	// The marker is written like a frame: a crash mid-claim must not leave
	// a truncated owner id behind.
	if err := writeAtomic(path, []byte(id+"\n")); err != nil {
		return fmt.Errorf("checkpoint: claim %s: %w", dir, err)
	}
	return nil
}
