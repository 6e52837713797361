package countingnet

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// The check forms a mutant header may name (testdata/mutants/run.sh
// accepts the same two), and the digest and golden tests it may not:
// those go red on any change at all, so they prove nothing about an
// invariant.
var (
	mutantTestCheck = regexp.MustCompile(`^go test -count=1 -run '\^(Test\w+)\$' \./([\w/]+)$`)
	mutantSimCheck  = regexp.MustCompile(`^go run \./cmd/countsim( -cluster)? -seeds [0-9]+$`)
	goldenTests     = regexp.MustCompile(`^(TestReplayByteIdentical|TestClusterTraceDeterminism|TestCostGolden)$`)
)

// mutantHeader reads a patch's "# check:" and "# catches:" lines from
// the comment block before its diff, and checks both.
func mutantHeader(path string) (check, catches string, err error) {
	f, err := os.Open(path)
	if err != nil {
		return "", "", err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() && strings.HasPrefix(sc.Text(), "#") {
		line := sc.Text()
		if v, ok := strings.CutPrefix(line, "# check: "); ok {
			if check != "" {
				return "", "", fmt.Errorf("two check lines")
			}
			check = v
		}
		if v, ok := strings.CutPrefix(line, "# catches: "); ok {
			if catches != "" {
				return "", "", fmt.Errorf("two catches lines")
			}
			catches = v
		}
	}
	if err := sc.Err(); err != nil {
		return "", "", err
	}
	if !strings.HasPrefix(sc.Text(), "diff --git ") {
		return "", "", fmt.Errorf("header not followed by a diff")
	}
	if _, err := regexp.Compile(catches); err != nil || catches == "" {
		return "", "", fmt.Errorf("catches %q is not a pattern", catches)
	}
	if m := mutantTestCheck.FindStringSubmatch(check); m != nil {
		if goldenTests.MatchString(m[1]) {
			return "", "", fmt.Errorf("check names %s, a digest or golden test", m[1])
		}
		decl := regexp.MustCompile(`(?m)^func ` + m[1] + `\(t \*testing\.T\)`)
		tests, _ := filepath.Glob(filepath.Join(m[2], "*_test.go"))
		for _, p := range tests {
			if src, err := os.ReadFile(p); err == nil && decl.Match(src) {
				return check, catches, nil
			}
		}
		return "", "", fmt.Errorf("check names %s, which ./%s does not declare", m[1], m[2])
	}
	if !mutantSimCheck.MatchString(check) {
		return "", "", fmt.Errorf("check %q is neither one go test nor a countsim sweep", check)
	}
	return check, catches, nil
}

// TestMutantPatches guards what `make mutants` runs: every patch under
// testdata/mutants names one check it may name and a catches pattern,
// and still applies to this tree, so a stale patch fails go test, not
// only the mutants run.
func TestMutantPatches(t *testing.T) {
	patches, err := filepath.Glob("testdata/mutants/*.patch")
	if err != nil {
		t.Fatal(err)
	}
	if len(patches) < 6 {
		t.Fatalf("%d mutants under testdata/mutants, want at least 6", len(patches))
	}
	for _, p := range patches {
		if _, _, err := mutantHeader(p); err != nil {
			t.Errorf("%s: %v", p, err)
		}
	}
	git, err := exec.LookPath("git")
	if err != nil {
		t.Skip("git not installed: headers checked, patches not applied")
	}
	// Stop git's repository search at this directory, so a tree that is
	// not a repository root (a copy under .mutants, say) is patched
	// where it stands, not where an enclosing repository's root is.
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range patches {
		cmd := exec.Command(git, "apply", "--check", p)
		cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(wd))
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Errorf("%s no longer applies: %v\n%s", p, err, out)
		}
	}
}
