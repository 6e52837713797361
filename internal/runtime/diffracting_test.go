package runtime

import "testing"

func TestDiffractingTreeSequential(t *testing.T) {
	tree, err := NewDiffractingTree(8)
	if err != nil {
		t.Fatal(err)
	}
	for k := int64(0); k < 50; k++ {
		if v := tree.Inc(0); v != k {
			t.Fatalf("token %d got %d", k, v)
		}
	}
	if tree.Diffractions() != 0 {
		t.Error("sequential run cannot diffract")
	}
}

func TestDiffractingTreeConcurrent(t *testing.T) {
	for _, w := range []int{2, 4, 8, 16} {
		tree, err := NewDiffractingTree(w)
		if err != nil {
			t.Fatal(err)
		}
		// Like any counting network, quiescently consistent counting; the
		// ordering half of the audit is informational.
		hammer(t, tree, 2*w, 300)
	}
}

func TestDiffractingTreeBadFan(t *testing.T) {
	for _, w := range []int{0, 1, 3, 12} {
		if _, err := NewDiffractingTree(w); err == nil {
			t.Errorf("fan %d should fail", w)
		}
	}
}

// TestDiffractRoutePairing drives the prism rendezvous deterministically:
// a pre-published offer is claimed by the next arrival, which goes right
// while the offer is marked taken.
func TestDiffractRoutePairing(t *testing.T) {
	n := &diffNode{}
	off := &diffOffer{}
	n.prism.Store(off)
	goRight, paired := n.route()
	if !paired || !goRight {
		t.Fatalf("claimer should pair and go right, got (%v,%v)", goRight, paired)
	}
	if off.state.Load() != 1 {
		t.Error("offer should be marked taken")
	}
	if n.prism.Load() != nil {
		t.Error("prism should be cleared after pairing")
	}
	// The offerer, observing state 1, goes left — simulated directly.
	if off.state.Load() == 1 {
		// counting invariant: one left + one right, toggle untouched
		if n.toggle.Load() != 0 {
			t.Error("pairing must not touch the toggle")
		}
	}
}

// TestDiffractingTreeCountsDiffraction: a token that claims an offer
// waiting in the root's prism is counted as a diffraction and leaves
// right, so it lands on the root's right subtree's first leaf.
func TestDiffractingTreeCountsDiffraction(t *testing.T) {
	tree, err := NewDiffractingTree(4)
	if err != nil {
		t.Fatal(err)
	}
	tree.root.prism.Store(&diffOffer{})
	if v := tree.Inc(0); v != 1 {
		t.Errorf("diffracted token got %d, want 1 (root right, then left)", v)
	}
	if got := tree.Diffractions(); got != 1 {
		t.Errorf("Diffractions() = %d, want 1", got)
	}
}

// TestDiffractRouteWithdraw: with no partner, a token publishes, times
// out, withdraws and falls back to the toggle (left first).
func TestDiffractRouteWithdraw(t *testing.T) {
	n := &diffNode{}
	goRight, paired := n.route()
	if paired {
		t.Fatal("no partner exists; cannot pair")
	}
	if goRight {
		t.Error("first toggled token goes left")
	}
	if n.toggle.Load() != 1 {
		t.Error("toggle should have advanced")
	}
	if n.prism.Load() != nil {
		t.Error("withdrawn offer should be cleared")
	}
	// Second token alternates right.
	goRight, _ = n.route()
	if !goRight {
		t.Error("second toggled token goes right")
	}
}

// TestDiffractStaleOfferCleared: a withdrawn (stale) offer left in the
// prism is helped away by the next arrival, which then proceeds normally.
func TestDiffractStaleOfferCleared(t *testing.T) {
	n := &diffNode{}
	stale := &diffOffer{}
	stale.state.Store(2)
	n.prism.Store(stale)
	_, paired := n.route()
	if paired {
		t.Error("stale offer must not pair")
	}
	if got := n.prism.Load(); got == stale {
		t.Error("stale offer should be cleared")
	}
}
