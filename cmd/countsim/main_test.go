package main

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/consistency"
	"repro/internal/dst"
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

// TestFlavorLine pins the per-flavor summary line a sweep prints, F_nl
// of SC values included: pooled over seeds, not averaged per seed.
func TestFlavorLine(t *testing.T) {
	var tl dst.Tally
	tl.Add(&dst.Outcome{Audit: consistency.Report{
		SC:  consistency.ModeReport{Ops: 6, NonLin: 3, NonSC: 1, Displacement: 512},
		LIN: consistency.ModeReport{Ops: 4, Displacement: 7},
	}})
	tl.Add(&dst.Outcome{Audit: consistency.Report{SC: consistency.ModeReport{Ops: 2, Displacement: 9}}})
	const want = "countsim: clean: 1 seeds with a session-order break, largest displacement k 512, F_nl of SC values 0.3750 (3/8)"
	if got := line("clean", &tl); got != want {
		t.Errorf("got  %q\nwant %q", got, want)
	}
	var empty dst.Tally
	const none = "countsim: single: 0 seeds with a session-order break, largest displacement k 0, F_nl of SC values 0.0000 (0/0)"
	if got := line("single", &empty); got != none {
		t.Errorf("got  %q\nwant %q", got, none)
	}
}
