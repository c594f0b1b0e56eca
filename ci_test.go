package irregular

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestCIRunPatternsNameTests reads the CI workflow and requires every
// alternative of every `-run '…'` pattern in it to match at least one
// `func Test…` in the repository. go test passes when its -run pattern
// matches nothing, so a deleted or renamed test would otherwise leave a CI
// step that silently runs nothing. The pattern ^$, which asks for no tests
// (beside -bench), is exempt.
func TestCIRunPatternsNameTests(t *testing.T) {
	workflow, err := os.ReadFile(".github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	var tests []string
	decl := regexp.MustCompile(`(?m)^func (Test\w*)\(`)
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != "." {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range decl.FindAllStringSubmatch(string(src), -1) {
			tests = append(tests, m[1])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	patterns := regexp.MustCompile(`-run '([^']*)'`).FindAllStringSubmatch(string(workflow), -1)
	if len(patterns) == 0 {
		t.Fatal("no -run '…' pattern found in the CI workflow")
	}
	for _, p := range patterns {
		if p[1] == "^$" {
			continue
		}
		// The first /-separated element matches top-level test names.
		top, _, _ := strings.Cut(p[1], "/")
		for _, alt := range strings.Split(top, "|") {
			re, err := regexp.Compile(alt)
			if err != nil {
				t.Errorf("-run '%s': alternative %q: %v", p[1], alt, err)
				continue
			}
			if !slices.ContainsFunc(tests, re.MatchString) {
				t.Errorf("-run '%s': alternative %q matches no func Test… in the repository", p[1], alt)
			}
		}
	}
}
