package main

import (
	"os"
	"testing"
)

// TestExampleRuns runs the walk-through program end to end and compares its
// whole output, byte for byte, with testdata/output.golden: the trace-level
// predictor accuracy and T-SSBF counts are deterministic.
func TestExampleRuns(t *testing.T) {
	want, err := os.ReadFile("testdata/output.golden")
	if err != nil {
		t.Fatal(err)
	}
	if out := runMain(t); out != string(want) {
		t.Errorf("output differs from testdata/output.golden:\n--- got ---\n%s--- want ---\n%s", out, want)
	}
}

// runMain runs the example program and returns what it printed.
func runMain(t *testing.T) string {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	stdout := os.Stdout
	os.Stdout = f
	main()
	os.Stdout = stdout
	out, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}
