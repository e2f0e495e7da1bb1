package pacevm

import (
	"os/exec"
	"strings"
	"testing"
)

// TestEveryInternalPackageIsLinked fails for each internal package that
// no command links: code no binary runs belongs in a test file, an
// example or nowhere.
func TestEveryInternalPackageIsLinked(t *testing.T) {
	list := func(args ...string) []string {
		t.Helper()
		out, err := exec.Command("go", append([]string{"list"}, args...)...).Output()
		if err != nil {
			t.Fatalf("go list %s: %v", strings.Join(args, " "), err)
		}
		return strings.Fields(string(out))
	}
	linked := map[string]bool{}
	for _, p := range list("-deps", "./cmd/...") {
		linked[p] = true
	}
	for _, p := range list("./internal/...") {
		if !linked[p] {
			t.Errorf("%s is linked by no binary under cmd/", p)
		}
	}
}
