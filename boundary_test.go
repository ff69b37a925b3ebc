package hhgb

import (
	"os/exec"
	"strings"
	"testing"
)

// TestProductImportBoundary pins the split between the product (the
// server, its load generator and the client library) and the paper
// reproduction scaffolding: nothing the product links may import a package
// under internal/repro, the D4M associative arrays in internal/assoc, nor
// the test-only fault-injection network.
func TestProductImportBoundary(t *testing.T) {
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skipf("no go tool on PATH: %v", err)
	}
	// The rule is a path prefix, so it would pass vacuously if the
	// reproduction packages moved out from under it. go list only warns,
	// on stderr, when a pattern matches nothing.
	repro, err := exec.Command(goTool, "list", "hhgb/internal/repro/...").Output()
	if err != nil || len(strings.Fields(string(repro))) == 0 {
		t.Fatalf("go list hhgb/internal/repro/... matched no package (err %v)", err)
	}
	out, err := exec.Command(goTool, "list", "-deps",
		"hhgb/cmd/hhgb-serve", "hhgb/cmd/trafficgen", "hhgb/hhgbclient").CombinedOutput()
	if err != nil {
		t.Fatalf("go list: %v\n%s", err, out)
	}
	for _, dep := range strings.Fields(string(out)) {
		if strings.HasPrefix(dep, "hhgb/internal/repro/") ||
			dep == "hhgb/internal/assoc" || dep == "hhgb/internal/faultnet" {
			t.Errorf("the product imports %s", dep)
		}
	}
}
