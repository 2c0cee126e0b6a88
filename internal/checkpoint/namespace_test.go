package checkpoint

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// readOwner returns the job id in dir's owner marker, or "" without one.
func readOwner(t *testing.T, dir string) string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, ownerFile))
	if err != nil && !os.IsNotExist(err) {
		t.Fatal(err)
	}
	return strings.TrimSpace(string(data))
}

// TestClaimOwnership: a fresh claim creates and marks the namespace,
// re-claiming under the same id is idempotent, and a different id is a
// loud ErrNamespace — never a silent checkpoint mixup.
func TestClaimOwnership(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ns")
	if err := Claim(dir, "job-000001"); err != nil {
		t.Fatal(err)
	}
	if owner := readOwner(t, dir); owner != "job-000001" {
		t.Fatalf("owner %q, want job-000001", owner)
	}
	if err := Claim(dir, "job-000001"); err != nil {
		t.Fatalf("idempotent re-claim: %v", err)
	}
	err := Claim(dir, "job-000002")
	if !errors.Is(err, ErrNamespace) {
		t.Fatalf("cross-job claim: got %v, want ErrNamespace", err)
	}
	// The collision must not steal ownership.
	if owner := readOwner(t, dir); owner != "job-000001" {
		t.Fatalf("owner after rejected claim %q, want job-000001", owner)
	}
}

// TestClaimAdoptsLegacyDir: a pre-namespace checkpoint dir (no OWNER
// marker) is adopted by the first claimer, so old checkpoint dirs keep
// working after an upgrade.
func TestClaimAdoptsLegacyDir(t *testing.T) {
	dir := t.TempDir() // exists, no marker
	if owner := readOwner(t, dir); owner != "" {
		t.Fatalf("legacy dir owner %q, want empty", owner)
	}
	if err := Claim(dir, "job-000009"); err != nil {
		t.Fatal(err)
	}
	if owner := readOwner(t, dir); owner != "job-000009" {
		t.Fatalf("adopted owner %q", owner)
	}
}

// TestValidateID: ids embed in file paths and the OWNER marker line, so
// separators, traversal names and control characters are rejected.
func TestValidateID(t *testing.T) {
	for _, ok := range []string{"job-000001", "my_job.7", "A"} {
		if err := ValidateID(ok); err != nil {
			t.Errorf("ValidateID(%q) = %v, want nil", ok, err)
		}
	}
	for _, bad := range []string{
		"", " padded ", "a/b", `a\b`, "a:b", "a\nb", "a\rb", "a\x00b", ".", "..",
	} {
		if err := ValidateID(bad); err == nil {
			t.Errorf("ValidateID(%q) accepted", bad)
		}
	}
	if err := Claim(t.TempDir(), "bad/id"); err == nil {
		t.Fatal("Claim accepted an invalid id")
	}
}
