package lint

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"
)

// wantRe extracts `// want "..."` (or `/* want "..." */`, for lines whose
// line comment is itself under test) expectations from fixture lines. The
// quoted text is a regexp matched against the diagnostic message.
var wantRe = regexp.MustCompile(`(?://|/\*) want "([^"]*)"`)

// expectation is one `// want` marker.
type expectation struct {
	file string
	line int
	re   *regexp.Regexp
}

func parseWants(t *testing.T, dir string) []expectation {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var wants []expectation
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		path := filepath.Join(dir, e.Name())
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(f)
		for line := 1; sc.Scan(); line++ {
			for _, m := range wantRe.FindAllStringSubmatch(sc.Text(), -1) {
				re, err := regexp.Compile(m[1])
				if err != nil {
					t.Fatalf("%s:%d: bad want regexp %q: %v", path, line, m[1], err)
				}
				wants = append(wants, expectation{file: path, line: line, re: re})
			}
		}
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}
	return wants
}

// TestGolden runs the full analyzer suite over each fixture package and
// requires an exact match between the diagnostics produced and the `// want`
// markers: every marker must be satisfied by a diagnostic on its line, and
// every diagnostic must be claimed by a marker.
func TestGolden(t *testing.T) {
	modRoot, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	families := []string{
		"wallclock", "maporder", "psncompare", "timeunits", "hotpath",
		"ndtaint", "purity", "hotalloc", "escapes",
	}
	// One loader and one Program over every fixture package: the
	// interprocedural analyzers key their module-wide results by package, so
	// fixtures cannot contaminate each other, and sharing the stdlib
	// type-check keeps the suite fast.
	ldr, err := NewLoader(modRoot)
	if err != nil {
		t.Fatal(err)
	}
	pkgs := make(map[string]*Package, len(families))
	for _, family := range families {
		dir := filepath.Join(modRoot, "internal", "lint", "testdata", "src", family)
		pkg, err := ldr.LoadDir(dir)
		if err != nil {
			t.Fatalf("loading fixture %s: %v", family, err)
		}
		pkgs[family] = pkg
	}
	prog := NewProgram(ldr.Fset, ldr.Packages(), ldr.ModPath)
	for _, family := range families {
		t.Run(family, func(t *testing.T) {
			dir := filepath.Join(modRoot, "internal", "lint", "testdata", "src", family)
			pass := &Pass{Fset: ldr.Fset, Pkg: pkgs[family], Prog: prog}
			var got []Diagnostic
			for _, a := range Analyzers {
				got = append(got, a.Run(pass)...)
			}

			wants := parseWants(t, dir)
			if len(wants) == 0 {
				t.Fatalf("fixture %s has no // want markers", family)
			}
			claimed := make([]bool, len(got))
			for _, w := range wants {
				matched := false
				for i, d := range got {
					if claimed[i] || d.Pos.Filename != w.file || d.Pos.Line != w.line {
						continue
					}
					if w.re.MatchString(d.Message) {
						claimed[i] = true
						matched = true
						break
					}
				}
				if !matched {
					t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.re)
				}
			}
			for i, d := range got {
				if !claimed[i] {
					t.Errorf("unexpected diagnostic: %s", d)
				}
			}
		})
	}
}

// TestRunSkipsFixtures ensures the top-level driver never reports the seeded
// violations in the fixture tree: testdata is excluded from pattern
// expansion, and the lint package itself is out of every analyzer's scope.
func TestRunSkipsFixtures(t *testing.T) {
	modRoot, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := Run(modRoot, []string{"internal/lint/..."})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("unexpected diagnostic from lint's own tree: %s", d)
	}
}

// TestRunCoversRoutePlane pins the lint suite's coverage of the routing
// control plane. internal/route must lint clean, and — non-vacuously — its
// update-propagation path must be inside the map-order analyzer's reach set:
// Plane.send schedules engine events, so a `range` over a map anywhere on
// that path without a `//lint:ordered` review feeds Go's randomized
// iteration order straight into the event queue and breaks the delay-0
// oracle/distributed byte-identity guarantee.
func TestRunCoversRoutePlane(t *testing.T) {
	modRoot, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := Run(modRoot, []string{"internal/route"})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("internal/route does not lint clean: %s", d)
	}

	ldr, err := NewLoader(modRoot)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ldr.LoadDir(filepath.Join(modRoot, "internal", "route")); err != nil {
		t.Fatal(err)
	}
	reach := NewProgram(ldr.Fset, ldr.Packages(), ldr.ModPath).Reach()
	routeReached := false
	for fn, ok := range reach {
		if ok && strings.Contains(fn, "/internal/route.") {
			routeReached = true
			break
		}
	}
	if !routeReached {
		t.Fatal("no internal/route function reaches an event-queue sink — the map-order analyzer is vacuous over the routing plane")
	}
}

// fullRun is the one full Run over internal/... and cmd/... that
// TestRunCleanTree and TestSuiteWallBudget share: one run, timed, whichever of
// the two asks first.
var fullRun = sync.OnceValue(func() (r struct {
	diags   []Diagnostic
	err     error
	elapsed time.Duration
}) {
	modRoot, err := filepath.Abs("../..")
	if err != nil {
		r.err = err
		return r
	}
	start := time.Now()
	r.diags, r.err = Run(modRoot, []string{"internal/...", "cmd/..."})
	r.elapsed = time.Since(start)
	return r
})

// TestRunCleanTree is the self-test that gates make verify from inside the
// test suite as well: the repaired repository must lint clean.
func TestRunCleanTree(t *testing.T) {
	r := fullRun()
	if r.err != nil {
		t.Fatal(r.err)
	}
	for _, d := range r.diags {
		t.Errorf("repository does not lint clean: %s", d)
	}
	if testing.Verbose() {
		fmt.Printf("lint: clean over internal/... and cmd/...\n")
	}
}

// TestSuiteWallBudget keeps the full-suite wall time inside the CI budget:
// the suite runs on every verify, so a quadratic regression in the loader or
// the taint solver must fail loudly here rather than slowly rot the edit
// cycle. The 30 s ceiling is ~7x the current cost on the CI runner class. It
// times the same run TestRunCleanTree checks. Under the race detector the same
// run takes over 20 s alone, so the budget there measures how busy the machine
// is, not the linter: the guard runs without it.
func TestSuiteWallBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-budget guard is not meaningful under -short")
	}
	if raceEnabled {
		t.Skip("wall-budget guard is not meaningful under the race detector")
	}
	r := fullRun()
	if r.err != nil {
		t.Fatal(r.err)
	}
	if r.elapsed > 30*time.Second {
		t.Errorf("full lint suite took %v, over the 30s budget", r.elapsed)
	}
}
