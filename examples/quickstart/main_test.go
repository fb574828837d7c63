package main

import (
	"os"
	"strings"
	"testing"
)

// TestExampleRuns runs the walk-through program end to end: both NoSQ
// configurations are compared against the baseline and the table is printed.
func TestExampleRuns(t *testing.T) {
	out := runMain(t)
	for _, want := range []string{
		"nosq-nodelay   relative execution time vs baseline",
		"nosq-delay     relative execution time vs baseline",
		"SQ forwards",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output lacks %q:\n%s", want, out)
		}
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
