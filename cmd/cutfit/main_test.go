package main

import (
	"os"
	"path/filepath"
	"testing"

	"cutfit/internal/algorithms"
)

// TestRunEveryRegisteredAlgorithm drives `cutfit run` through every
// registry algorithm, with an explicit and an auto-selected strategy, and
// checks that bad input is an error rather than a panic.
func TestRunEveryRegisteredAlgorithm(t *testing.T) {
	dir := t.TempDir()
	tri := filepath.Join(dir, "tri.txt")
	empty := filepath.Join(dir, "empty.txt")
	if err := os.WriteFile(tri, []byte("0 1\n1 2\n2 0\n2 3\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, alg := range algorithms.Names() {
		for _, strat := range []string{"2D", "auto"} {
			if err := cmdRun([]string{"-in", tri, "-alg", alg, "-strategy", strat, "-parts", "4"}); err != nil {
				t.Errorf("run -alg %s -strategy %s: %v", alg, strat, err)
			}
		}
	}
	if err := cmdRun([]string{"-in", empty, "-alg", "sssp", "-parts", "4"}); err == nil {
		t.Error("sssp on an empty graph succeeded")
	}
	if err := cmdRun([]string{"-in", tri, "-alg", "bogus", "-parts", "4"}); err == nil {
		t.Error("an unknown algorithm succeeded")
	}
}
