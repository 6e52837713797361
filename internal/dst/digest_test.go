package dst

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

var updateDigests = flag.Bool("update", false, "rewrite testdata/trace.sha256 and testdata/cost.golden from the current code")

// traceDigestFile pins the SHA-256 of chosen seeds' traces, one
// "flavor seed sha256" line each — the format `make sim-digest` prints.
// A double run within one build proves determinism; only a digest
// written by an earlier build catches a trace that changed across
// commits. Regenerate with -update.
var traceDigestFile = filepath.Join("testdata", "trace.sha256")

type digestKey struct {
	flavor string // "single" or "cluster"
	seed   uint64
}

// pinTraces checks each seed's trace against its pinned digest, or with
// -update replaces every pinned line of this flavor with the current
// digests.
func pinTraces(t *testing.T, flavor string, traces map[uint64][]byte) {
	t.Helper()
	raw, err := os.ReadFile(traceDigestFile)
	if err != nil && !(*updateDigests && os.IsNotExist(err)) {
		t.Fatal(err)
	}
	pinned := map[digestKey]string{}
	for _, line := range strings.Split(string(raw), "\n") {
		var k digestKey
		var d string
		if n, _ := fmt.Sscanf(line, "%s %d %s", &k.flavor, &k.seed, &d); n == 3 && (k.flavor != flavor || !*updateDigests) {
			pinned[k] = d
		}
	}
	for seed, tr := range traces {
		k := digestKey{flavor, seed}
		got := fmt.Sprintf("%x", sha256.Sum256(tr))
		if *updateDigests {
			pinned[k] = got
			continue
		}
		switch want, ok := pinned[k]; {
		case !ok:
			t.Errorf("%s seed %d: no digest pinned in %s (regenerate with -update)", flavor, seed, traceDigestFile)
		case got != want:
			t.Errorf("%s seed %d: trace sha256 %s, pinned %s — the trace changed", flavor, seed, got, want)
		}
	}
	if !*updateDigests {
		return
	}
	keys := make([]digestKey, 0, len(pinned))
	for k := range pinned {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].flavor != keys[j].flavor {
			return keys[i].flavor > keys[j].flavor // single before cluster, as make sim-digest prints
		}
		return keys[i].seed < keys[j].seed
	})
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "%s %d %s\n", k.flavor, k.seed, pinned[k])
	}
	if err := os.MkdirAll(filepath.Dir(traceDigestFile), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(traceDigestFile, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}
