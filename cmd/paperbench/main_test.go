package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestNegativeWorkersRejected re-runs the test binary as paperbench with a
// negative -workers and expects the usage exit status and a message,
// instead of a silent run at the executor default.
func TestNegativeWorkersRejected(t *testing.T) {
	if os.Getenv("PAPERBENCH_TEST_MAIN") == "1" {
		// A run that wrongly accepts the flag stays small and exits 0.
		os.Args = []string{"paperbench", "-workers", "-3", "-fig", "10", "-ranks-list", "4"}
		main()
		return
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestNegativeWorkersRejected$")
	cmd.Env = append(os.Environ(), "PAPERBENCH_TEST_MAIN=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Fatalf("paperbench -workers -3: got %v, want exit status 2; stderr:\n%s", err, stderr.String())
	}
	if !strings.Contains(stderr.String(), "bad -workers -3") {
		t.Fatalf("stderr does not explain the rejection:\n%s", stderr.String())
	}
}
