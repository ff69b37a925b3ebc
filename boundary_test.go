package hhgb

import (
	"os/exec"
	"strings"
	"testing"
)

// TestProductImportBoundary pins two splits. Nothing the product (the
// server, its load generator and the client library) links may import a
// package under internal/repro, the paper reproduction scaffolding, nor
// the test-only fault-injection network. And every example speaks the
// public API: it imports hhgb, hhgbclient, internal/server,
// internal/powerlaw and the standard library, nothing else.
func TestProductImportBoundary(t *testing.T) {
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skipf("no go tool on PATH: %v", err)
	}
	goList := func(args ...string) []string {
		t.Helper()
		out, err := exec.Command(goTool, append([]string{"list"}, args...)...).CombinedOutput()
		if err != nil {
			t.Fatalf("go list %v: %v\n%s", args, err, out)
		}
		return strings.Split(strings.TrimSpace(string(out)), "\n")
	}
	// Both rules are path prefixes, so they would pass vacuously if the
	// packages moved out from under them. go list only warns, on stderr,
	// when a pattern matches nothing.
	for _, pattern := range []string{"hhgb/internal/repro/...", "hhgb/examples/..."} {
		out, err := exec.Command(goTool, "list", pattern).Output()
		if err != nil || len(strings.Fields(string(out))) == 0 {
			t.Fatalf("go list %s matched no package (err %v)", pattern, err)
		}
	}

	for _, dep := range goList("-deps", "hhgb/cmd/hhgb-serve", "hhgb/cmd/trafficgen", "hhgb/hhgbclient") {
		if strings.HasPrefix(dep, "hhgb/internal/repro/") || dep == "hhgb/internal/faultnet" {
			t.Errorf("the product imports %s", dep)
		}
	}

	allowed := map[string]bool{
		"hhgb":                   true,
		"hhgb/hhgbclient":        true,
		"hhgb/internal/server":   true,
		"hhgb/internal/powerlaw": true,
	}
	for _, line := range goList("-f", "{{.ImportPath}}{{range .Imports}} {{.}}{{end}}", "hhgb/examples/...") {
		f := strings.Fields(line)
		for _, imp := range f[1:] {
			// The module has no dependencies, so an import outside the
			// module is the standard library.
			inModule := imp == "hhgb" || strings.HasPrefix(imp, "hhgb/")
			if inModule && !allowed[imp] {
				t.Errorf("example %s imports %s", f[0], imp)
			}
		}
	}
}
