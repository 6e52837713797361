package dst

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"repro/internal/packetio"
)

// udpSeeds returns the first n seeds whose scenarios carry a UDP
// datagram plan, skipping none.
func udpSeeds(t *testing.T, n int) []uint64 {
	t.Helper()
	var out []uint64
	for seed := uint64(1); seed <= 2000 && len(out) < n; seed++ {
		if GenScenario(seed).Flavor == "udp" {
			out = append(out, seed)
		}
	}
	if len(out) < n {
		t.Fatalf("only %d udp-flavor seeds in 2000, want %d", len(out), n)
	}
	return out
}

// TestUDPPlanWellFormed audits the generator: injection times strictly
// increase, every replay copies an earlier unique datagram verbatim,
// and the plan space actually produces retransmits.
func TestUDPPlanWellFormed(t *testing.T) {
	withReplays := 0
	for _, seed := range udpSeeds(t, 20) {
		sc := GenScenario(seed)
		if len(sc.UDP) == 0 {
			t.Fatalf("seed %d: udp flavor with empty plan", seed)
		}
		uniq := map[uint64]UDPDatagram{}
		var last time.Duration
		for i, d := range sc.UDP {
			if d.At <= last {
				t.Errorf("seed %d: datagram %d at %v not after %v", seed, i, d.At, last)
			}
			last = d.At
			if d.K < 1 {
				t.Errorf("seed %d: datagram %d has k=%d", seed, i, d.K)
			}
			if d.Wire < 0 || d.Wire >= sc.Width {
				t.Errorf("seed %d: datagram %d wire %d outside width %d", seed, i, d.Wire, sc.Width)
			}
			if d.Replay {
				orig, ok := uniq[d.ID]
				if !ok {
					t.Errorf("seed %d: replay %d references unseen id %d", seed, i, d.ID)
				} else if orig.Wire != d.Wire || orig.K != d.K {
					t.Errorf("seed %d: replay %d not byte-identical to original: %+v vs %+v", seed, i, d, orig)
				}
			} else {
				if _, dup := uniq[d.ID]; dup {
					t.Errorf("seed %d: unique datagram %d reuses id %d", seed, i, d.ID)
				}
				uniq[d.ID] = d
			}
		}
		if sc.UDPReplays() > 0 {
			withReplays++
		}
		if !sc.CleanRun() {
			t.Errorf("seed %d: udp flavor must ride a clean TCP base", seed)
		}
	}
	if withReplays == 0 {
		t.Error("no udp plan with replays in 20 seeds — retransmission never exercised")
	}
}

// TestUDPFlavorSeedsPass runs udp-flavor seeds end to end: the invariant
// audit must pass, every unique datagram must be admitted and every
// retransmit rejected, and issued must reconcile exactly against the
// TCP-delivered values plus the plan's unique increments.
func TestUDPFlavorSeedsPass(t *testing.T) {
	for _, seed := range udpSeeds(t, 10) {
		res, err := Run(seed, RunOptions{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if res.Failed() {
			t.Errorf("seed %d violations:\n  %s\ntrace:\n%s",
				seed, strings.Join(res.Violations, "\n  "), res.Trace)
			continue
		}
		sc := &res.Scenario
		if res.UDPAccepted == 0 {
			t.Errorf("seed %d: no datagrams admitted", seed)
		}
		if res.UDPReplays != uint64(sc.UDPReplays()) {
			t.Errorf("seed %d: %d replays rejected, plan has %d", seed, res.UDPReplays, sc.UDPReplays())
		}
		if res.UDPDropped == 0 && res.Issued != int64(res.Delivered)+sc.UDPExpected() {
			t.Errorf("seed %d: issued %d != delivered %d + udp %d",
				seed, res.Issued, res.Delivered, sc.UDPExpected())
		}
		if !bytes.Contains(res.Trace, []byte("# udp ")) {
			t.Errorf("seed %d: trace missing udp plan lines", seed)
		}
	}
}

// TestUDPFlavorByteIdentical pins the determinism contract on udp
// scenarios, with and without tracing: same seed, same bytes.
func TestUDPFlavorByteIdentical(t *testing.T) {
	seeds := udpSeeds(t, 3)
	for _, seed := range seeds {
		a, err := Run(seed, RunOptions{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		b, err := Run(seed, RunOptions{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !bytes.Equal(a.Trace, b.Trace) {
			t.Fatalf("seed %d: udp traces differ between runs\nrun1:\n%s\nrun2:\n%s", seed, a.Trace, b.Trace)
		}
		fa, err := Run(seed, RunOptions{Flight: true})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		fb, err := Run(seed, RunOptions{Flight: true})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if fa.Failed() {
			t.Errorf("seed %d traced violations:\n  %s", seed, strings.Join(fa.Violations, "\n  "))
		}
		if !bytes.Equal(fa.Flight, fb.Flight) {
			t.Fatalf("seed %d: udp flight dumps differ between runs", seed)
		}
	}
}

// TestUDPSuperPlanWellFormed audits the segmented-plan generator:
// every super is carveable (≥2 frames, equal encoded sizes, at most
// MaxSegments segments under its declared stride), injection times
// strictly increase past the singles, faults are exclusive and bounded,
// replays copy an earlier intact same-size segment, damaged supers
// contribute no replay slots, and the plan space actually exercises
// truncation, both skews, and in-super duplicates.
func TestUDPSuperPlanWellFormed(t *testing.T) {
	var sawTrunc, sawSkewUp, sawSkewDown, sawReplay, sawIntraDup int
	seen := 0
	for seed := uint64(1); seed <= 4000 && seen < 40; seed++ {
		sc := GenScenario(seed)
		if sc.Flavor != "udp" || len(sc.UDPSupers) == 0 {
			continue
		}
		seen++
		last := sc.UDP[len(sc.UDP)-1].At
		singleIDs := map[uint64]bool{}
		for _, d := range sc.UDP {
			singleIDs[d.ID] = true
		}
		orig := map[uint64]UDPSegment{}
		for i := range sc.UDPSupers {
			u := &sc.UDPSupers[i]
			if u.At <= last {
				t.Errorf("seed %d: super %d at %v not after %v", seed, i, u.At, last)
			}
			last = u.At
			if len(u.Frames) < 2 {
				t.Errorf("seed %d: super %d has %d frames, need ≥2", seed, i, len(u.Frames))
			}
			if u.Trunc != 0 && u.Skew != 0 {
				t.Errorf("seed %d: super %d has both trunc and skew", seed, i)
			}
			fs := u.Frames[0].encodedSize()
			if u.Trunc < 0 || u.Trunc > fs-1 {
				t.Errorf("seed %d: super %d trunc %d outside [0,%d]", seed, i, u.Trunc, fs-1)
			}
			total := 0
			inSuper := map[uint64]bool{}
			for j, g := range u.Frames {
				if s := g.encodedSize(); s != fs {
					t.Errorf("seed %d: super %d frame %d encodes to %d bytes, stride is %d", seed, i, j, s, fs)
				}
				if g.ID < 0x100 || g.ID >= 0x4000 {
					t.Errorf("seed %d: super %d frame %d id %#x outside the two-byte band", seed, i, j, g.ID)
				}
				if singleIDs[g.ID] {
					t.Errorf("seed %d: super %d frame %d reuses single id %d", seed, i, j, g.ID)
				}
				if g.Wire < 0 || g.Wire >= sc.Width {
					t.Errorf("seed %d: super %d frame %d wire %d outside width %d", seed, i, j, g.Wire, sc.Width)
				}
				total += fs
				intactPos := u.Skew == 0 && (u.Trunc == 0 || j < len(u.Frames)-1)
				if g.Replay {
					sawReplay++
					if !intactPos {
						t.Errorf("seed %d: super %d frame %d is a replay at a damaged position", seed, i, j)
					}
					o, ok := orig[g.ID]
					if !ok {
						t.Errorf("seed %d: super %d replay %d references unseen id %d", seed, i, j, g.ID)
					} else if o.Wire != g.Wire || o.K != g.K {
						t.Errorf("seed %d: super %d replay %d not byte-identical: %+v vs %+v", seed, i, j, g, o)
					}
					if inSuper[g.ID] {
						sawIntraDup++
					}
					continue
				}
				if _, dup := orig[g.ID]; dup {
					t.Errorf("seed %d: super %d frame %d reuses unique id %d", seed, i, j, g.ID)
				}
				if intactPos {
					orig[g.ID] = g
					inSuper[g.ID] = true
				}
			}
			seg := fs + u.Skew
			if nsegs := (total + seg - 1) / seg; nsegs > packetio.MaxSegments {
				t.Errorf("seed %d: super %d carves into %d segments, cap is %d", seed, i, nsegs, packetio.MaxSegments)
			}
			switch {
			case u.Trunc > 0:
				sawTrunc++
			case u.Skew > 0:
				sawSkewUp++
			case u.Skew < 0:
				sawSkewDown++
			}
		}
	}
	if seen < 40 {
		t.Fatalf("only %d udp seeds with supers in 4000", seen)
	}
	if sawTrunc == 0 || sawSkewUp == 0 || sawSkewDown == 0 || sawReplay == 0 || sawIntraDup == 0 {
		t.Errorf("plan space not covered in %d super seeds: trunc=%d skew+=%d skew-=%d replay=%d intradup=%d",
			seen, sawTrunc, sawSkewUp, sawSkewDown, sawReplay, sawIntraDup)
	}
}

// TestUDPSegmentedSeedsPass runs seeds whose plans carry damaged supers
// end to end: the invariant audit (including the bad_segment and
// replay-count reconciliations) must pass on every one.
func TestUDPSegmentedSeedsPass(t *testing.T) {
	run := 0
	for seed := uint64(1); seed <= 4000 && run < 8; seed++ {
		sc := GenScenario(seed)
		if sc.Flavor != "udp" || sc.UDPBadSegs() == 0 {
			continue
		}
		run++
		res, err := Run(seed, RunOptions{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if res.Failed() {
			t.Errorf("seed %d violations:\n  %s\ntrace:\n%s",
				seed, strings.Join(res.Violations, "\n  "), res.Trace)
			continue
		}
		if res.UDPBadSegs == 0 {
			t.Errorf("seed %d: plan damages %d segments but none were rejected", seed, sc.UDPBadSegs())
		}
		if !bytes.Contains(res.Trace, []byte("# udpgso ")) {
			t.Errorf("seed %d: trace missing udpgso plan lines", seed)
		}
	}
	if run < 8 {
		t.Fatalf("only %d seeds with damaged supers in 4000", run)
	}
}

// TestUDPSuperBurnNotMint drives a hand-built segmented plan — a clean
// super with an in-super duplicate, a truncated super, a mis-strided
// super, and a cross-super replay — and proves the admission chain
// burns every damaged or replayed segment while minting exactly the
// intact unique ones.
func TestUDPSuperBurnNotMint(t *testing.T) {
	const off = 14741 * time.Nanosecond
	sc := Scenario{
		Seed:      43,
		Flavor:    "udp",
		Width:     2,
		Workers:   1,
		Plans:     [][]opSpec{{}},
		Mailbox:   64,
		Retries:   1,
		JitterMin: 5 * time.Microsecond,
		JitterMax: 25 * time.Microsecond,
		UDPSupers: []UDPSuper{
			// Clean: 0x100 and 0x101 mint, the duplicate 0x100 inside the
			// same stride hits the replay window.
			{At: 1*time.Millisecond + off, Frames: []UDPSegment{
				{ID: 0x100, Wire: 0, K: 1},
				{ID: 0x101, Wire: 1, K: 1},
				{ID: 0x100, Wire: 0, K: 1, Replay: true},
			}},
			// Truncated tail: 0x102/0x103 mint, 0x104 rejects as
			// bad_segment and never enters the window.
			{At: 2*time.Millisecond + off, Trunc: 3, Frames: []UDPSegment{
				{ID: 0x102, Wire: 0, K: 2},
				{ID: 0x103, Wire: 1, K: 3},
				{ID: 0x104, Wire: 0, K: 2},
			}},
			// Mis-strided: nothing mints, every carved segment rejects.
			{At: 3*time.Millisecond + off, Skew: 1, Frames: []UDPSegment{
				{ID: 0x105, Wire: 0, K: 1},
				{ID: 0x106, Wire: 1, K: 1},
			}},
			// Cross-super replay of 0x103, plus proof 0x104's truncation
			// burned it: re-sending it intact must mint (it never entered
			// the window), so it appears here as a fresh unique.
			{At: 4*time.Millisecond + off, Frames: []UDPSegment{
				{ID: 0x103, Wire: 1, K: 3, Replay: true},
				{ID: 0x107, Wire: 0, K: 2},
			}},
		},
		DialTimeout: 50 * time.Millisecond,
		BackoffBase: time.Millisecond,
		BackoffCap:  4 * time.Millisecond,
	}
	res, err := RunScenario(sc, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed() {
		t.Fatalf("violations:\n  %s\ntrace:\n%s", strings.Join(res.Violations, "\n  "), res.Trace)
	}
	// Mints: 1+1 (clean) + 2+3 (trunc survivors) + 2 (0x107) = 9.
	if res.Issued != 9 {
		t.Errorf("issued %d, want 9", res.Issued)
	}
	if res.UDPAccepted != 5 || res.UDPReplays != 2 || res.UDPBadSegs != 3 || res.UDPDropped != 0 {
		t.Errorf("accepted/replays/badsegs/dropped = %d/%d/%d/%d, want 5/2/3/0",
			res.UDPAccepted, res.UDPReplays, res.UDPBadSegs, res.UDPDropped)
	}
	if !bytes.Contains(res.Trace, []byte("# udpgso 2 at=")) {
		t.Errorf("trace missing udpgso header lines:\n%s", res.Trace)
	}
}

// TestUDPBurnNotMint drives a hand-built plan — three unique datagrams,
// two retransmits, no TCP workload to hide behind — and proves the
// replay window burns the duplicates: exactly the unique values are
// minted, both replays are rejected, nothing is shed.
func TestUDPBurnNotMint(t *testing.T) {
	const off = 14741 * time.Nanosecond
	sc := Scenario{
		Seed:      42,
		Flavor:    "udp",
		Width:     2,
		Workers:   1,
		Plans:     [][]opSpec{{}},
		Mailbox:   64,
		Retries:   1,
		JitterMin: 5 * time.Microsecond,
		JitterMax: 25 * time.Microsecond,
		UDP: []UDPDatagram{
			{At: 1*time.Millisecond + off, ID: 1, Wire: 0, K: 1},
			{At: 2*time.Millisecond + off, ID: 2, Wire: 1, K: 3},
			{At: 3*time.Millisecond + off, ID: 1, Wire: 0, K: 1, Replay: true},
			{At: 4*time.Millisecond + off, ID: 3, Wire: 0, K: 1},
			{At: 5*time.Millisecond + off, ID: 2, Wire: 1, K: 3, Replay: true},
		},
		DialTimeout: 50 * time.Millisecond,
		BackoffBase: time.Millisecond,
		BackoffCap:  4 * time.Millisecond,
	}
	res, err := RunScenario(sc, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed() {
		t.Fatalf("violations:\n  %s\ntrace:\n%s", strings.Join(res.Violations, "\n  "), res.Trace)
	}
	if res.Issued != 5 {
		t.Errorf("issued %d, want 5 (1+3+1, replays burned)", res.Issued)
	}
	if res.Delivered != 0 {
		t.Errorf("delivered %d values over TCP, want 0", res.Delivered)
	}
	if res.UDPAccepted != 3 || res.UDPReplays != 2 || res.UDPDropped != 0 {
		t.Errorf("accepted/replays/dropped = %d/%d/%d, want 3/2/0",
			res.UDPAccepted, res.UDPReplays, res.UDPDropped)
	}
}
