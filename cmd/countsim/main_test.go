package main

import (
	"os"
	"path/filepath"
	"testing"
)

// TestArtifactNamesKeepFlavorsApart pins the artifact naming both the
// sweep and the replay use: a cluster seed's files carry their own
// prefix, so the single-server and cluster sweeps can share one
// artifact directory without overwriting each other's seed N.
func TestArtifactNamesKeepFlavorsApart(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range []struct {
		cluster bool
		ext     string
		want    string
	}{
		{false, "trace", "seed-7.trace"},
		{true, "trace", "cluster-seed-7.trace"},
		{false, "flight.json", "seed-7.flight.json"},
	} {
		path, err := artifact(dir, tc.cluster, 7, tc.ext, []byte(tc.want))
		if err != nil {
			t.Fatal(err)
		}
		if path != filepath.Join(dir, tc.want) {
			t.Errorf("cluster=%v %s: wrote %s, want %s", tc.cluster, tc.ext, path, tc.want)
		}
	}
	for _, name := range []string{"seed-7.trace", "cluster-seed-7.trace"} {
		got, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil || string(got) != name {
			t.Errorf("%s holds %q (%v), want its own bytes", name, got, err)
		}
	}
}
