package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// argsEnv carries the command line of a re-executed test binary: when it is
// set, the binary runs as paperbench instead of running the tests.
const argsEnv = "PAPERBENCH_TEST_ARGS"

func TestMain(m *testing.M) {
	if args := os.Getenv(argsEnv); args != "" {
		os.Args = append([]string{"paperbench"}, strings.Split(args, "\n")...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runMain re-runs the test binary as paperbench with args and returns its
// exit status, stdout and stderr.
func runMain(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), argsEnv+"="+strings.Join(args, "\n"))
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if err != nil && !errors.As(err, &exit) {
		t.Fatalf("paperbench %v: %v", args, err)
	}
	return cmd.ProcessState.ExitCode(), stdout.String(), stderr.String()
}

// TestNegativeWorkersRejected expects the usage exit status and a message
// for a negative -workers, instead of a silent run at the executor default.
func TestNegativeWorkersRejected(t *testing.T) {
	// A run that wrongly accepts the flag stays small and exits 0.
	code, _, stderr := runMain(t, "-workers", "-3", "-fig", "10", "-ranks-list", "4")
	if code != 2 {
		t.Fatalf("paperbench -workers -3: exit status %d, want 2; stderr:\n%s", code, stderr)
	}
	if !strings.Contains(stderr, "bad -workers -3") {
		t.Fatalf("stderr does not explain the rejection:\n%s", stderr)
	}
}

// TestBenchBaselineGate checks that -bench-baseline fails the command when
// a virtual metric moved or when nothing overlaps the baseline, and passes
// when every shared metric is reproduced.
func TestBenchBaselineGate(t *testing.T) {
	committed := filepath.Join("..", "..", "BENCH_4.json")
	data, err := os.ReadFile(committed)
	if err != nil {
		t.Fatal(err)
	}
	var rep map[string]any
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	metric := rep["figures"].([]any)[0].(map[string]any)["metrics"].([]any)[0].(map[string]any)
	metric["vsec"] = metric["vsec"].(float64) * 2
	moved := filepath.Join(t.TempDir(), "moved.json")
	if data, err = json.Marshal(rep); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(moved, data, 0o644); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		baseline string
		code     int
		want     string
	}{
		{committed, 0, "20 metrics compared, all identical"},
		{moved, 1, "20 metrics compared, 1 CHANGED"},
		{filepath.Join("..", "..", "BENCH_5.json"), 1, "no metrics in common"},
	}
	for _, c := range cases {
		code, stdout, stderr := runMain(t, "-fig", "mem", "-j", "1", "-bench-baseline", c.baseline)
		if code != c.code || !strings.Contains(stdout, c.want) {
			t.Errorf("-bench-baseline %s: exit status %d (want %d), output missing %q:\n%s%s",
				c.baseline, code, c.code, c.want, stdout, stderr)
		}
	}
}
