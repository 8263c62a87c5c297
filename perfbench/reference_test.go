package main

import (
	"bufio"
	"context"
	"os"
	"strings"
	"testing"
)

// The README records the reference densities of the default seed; the
// reference command must reproduce them. -short leaves out the input on
// which Exact takes tens of seconds.
func TestReferenceCommandReproducesTheReadme(t *testing.T) {
	f, err := os.Open("README.md")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	recorded := map[string]bool{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); strings.HasPrefix(line, "ref ") {
			recorded[line] = true
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := printReferences(context.Background(), &out, 1, testing.Short()); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	for _, line := range lines {
		if !recorded[line] {
			t.Errorf("reference line %q is not in README.md", line)
		}
	}
	if want := len(referenceInputs()); !testing.Short() && len(recorded) != want {
		t.Errorf("README.md records %d reference lines, the command prints %d", len(recorded), want)
	}
}
