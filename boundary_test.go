package hhgb

import (
	"os/exec"
	"strings"
	"testing"
)

// TestProductImportBoundary pins the split between the product (the
// server, its load generator and the client library) and the paper
// reproduction scaffolding: nothing the product links may import the
// baseline engines, the cluster model, the synthetic trace tooling or the
// other reproduction-only packages.
func TestProductImportBoundary(t *testing.T) {
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skipf("no go tool on PATH: %v", err)
	}
	out, err := exec.Command(goTool, "list", "-deps",
		"hhgb/cmd/hhgb-serve", "hhgb/cmd/trafficgen", "hhgb/hhgbclient").CombinedOutput()
	if err != nil {
		t.Fatalf("go list: %v\n%s", err, out)
	}
	forbidden := []string{"algo", "assoc", "baselines", "bench", "cluster", "memsim", "trace", "faultnet"}
	for _, dep := range strings.Fields(string(out)) {
		for _, name := range forbidden {
			pkg := "hhgb/internal/" + name
			if dep == pkg || strings.HasPrefix(dep, pkg+"/") {
				t.Errorf("the product imports %s", dep)
			}
		}
	}
}
