package experiments

import (
	"os"
	"path/filepath"
	"testing"

	"amrtools/internal/harness"
)

// TestTraceDumpDeterministicAcrossWorkers pins the TraceDir contract: span
// colfiles derive only from the deterministic simulation (no wall-clock
// columns), so a traced campaign must produce bit-identical files for any
// Exec.Workers setting.
func TestTraceDumpDeterministicAcrossWorkers(t *testing.T) {
	dump := func(workers int) map[string][]byte {
		dir := t.TempDir()
		opts := Options{Quick: true, Seed: 42, TraceDir: dir,
			Exec: harness.Exec{Workers: workers}}
		table(t)(Fig2(opts))
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		files := map[string][]byte{}
		for _, e := range entries {
			b, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			files[e.Name()] = b
		}
		return files
	}

	serial := dump(1)
	parallel := dump(4)
	if len(serial) == 0 {
		t.Fatal("traced campaign wrote no span colfiles")
	}
	for _, name := range []string{"fig2--throttled.col", "fig2--health-pruned.col"} {
		if _, ok := serial[name]; !ok {
			t.Fatalf("span dump missing %q (got %d files)", name, len(serial))
		}
	}
	if len(serial) != len(parallel) {
		t.Fatalf("file sets differ: %d files at -j 1, %d at -j 4", len(serial), len(parallel))
	}
	for name, want := range serial {
		got, ok := parallel[name]
		if !ok {
			t.Fatalf("%s written at -j 1 but not -j 4", name)
		}
		if string(got) != string(want) {
			t.Fatalf("%s differs between -j 1 and -j 4 (%d vs %d bytes)", name, len(want), len(got))
		}
	}
}
