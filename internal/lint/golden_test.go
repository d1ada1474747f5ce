package lint

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRealModuleClean is the golden assertion behind `make lint` and the CI
// lint job: the repository itself carries zero unwaived diagnostics. Any
// reintroduced wall-clock call in the deterministic core, unsorted map
// emission, non-exhaustive kind switch, swallowed error or stale waiver fails
// this test (and `amrlint ./...`) immediately.
func TestRealModuleClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short")
	}
	set, err := LoadSet(LoadConfig{Dir: "../.."})
	if err != nil {
		t.Fatal(err)
	}
	diags, waivers := Run(set, Analyzers())
	for _, d := range diags {
		t.Errorf("unwaived diagnostic: %s", d.String())
	}
	// The waiver register only goes down (DESIGN.md §8): three, all
	// determinism. Lower this bound when a waiver is retired; never raise it.
	if len(waivers) > 3 {
		t.Errorf("%d live //lint:ignore waivers, the register allows 3: retire one before adding one", len(waivers))
	}
	for _, w := range waivers {
		if w.Rule == "" || w.Reason == "" || w.File == "" || w.Line == 0 {
			t.Errorf("incomplete waiver record: %+v", w)
		}
	}
}

// TestCoreReachesMetricsSimPlane: internal/metrics is not a core package, yet
// its sim plane is checked, because the core calls into it. On a copy of the
// module with a time.Now seeded in (*Sum).Add, which only sim-plane sets
// register, determinism reports exactly that site, with the call path from
// the core function that reaches it.
func TestCoreReachesMetricsSimPlane(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short")
	}
	dir := t.TempDir()
	copyModuleSources(t, "../..", dir)
	path := filepath.Join(dir, "internal", "metrics", "metrics.go")
	src, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	seeded := strings.Replace(string(src), "\"strconv\"\n", "\"strconv\"\n\t\"time\"\n", 1)
	seeded = strings.Replace(seeded,
		"func (s *Sum) Add(lane int, v float64) { s.lanes[lane] += v }",
		"func (s *Sum) Add(lane int, v float64) { _ = time.Now(); s.lanes[lane] += v }", 1)
	if seeded == string(src) || !strings.Contains(seeded, "time.Now()") {
		t.Fatal("metrics.go no longer has the (*Sum).Add this test seeds")
	}
	if err := os.WriteFile(path, []byte(seeded), 0o644); err != nil {
		t.Fatal(err)
	}
	set, err := LoadSet(LoadConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	diags, _ := Run(set, Analyzers())
	const witness = "[via simnet.(*Network).planLocal -> metrics.(*Sum).Add]"
	if len(diags) != 1 || diags[0].Rule != "determinism" ||
		!strings.HasSuffix(diags[0].File, filepath.Join("internal", "metrics", "metrics.go")) ||
		!strings.Contains(diags[0].String(), witness) {
		t.Fatalf("want one determinism diagnostic in metrics.go %s, got %d: %v", witness, len(diags), diags)
	}
}

// copyModuleSources copies what the loader reads of the module at src — its
// go.mod and every non-test .go file outside hidden and testdata trees — to
// dst.
func copyModuleSources(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != src && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if name != "go.mod" && (!strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go")) {
			return nil
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		out := filepath.Join(dst, rel)
		if err := os.MkdirAll(filepath.Dir(out), 0o755); err != nil {
			return err
		}
		return os.WriteFile(out, data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}
