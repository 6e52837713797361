package runtime

import (
	"testing"
	"unsafe"

	"repro/internal/construct"
)

// TestShapeAccessors: the compiled network reports the same topology as
// its spec, and Issued tracks values handed out.
func TestShapeAccessors(t *testing.T) {
	spec := construct.MustBitonic(8)
	n := MustCompile(spec)

	if n.Width() != spec.FanIn() || n.Width() != 8 {
		t.Fatalf("Width() = %d, want %d", n.Width(), spec.FanIn())
	}
	s := n.Shape()
	if s != spec.Shape() {
		t.Fatalf("Shape() = %+v, spec %+v", s, spec.Shape())
	}
	if s.Width != 8 || s.Sinks != 8 || s.Balancers != spec.Size() || s.Depth != spec.Depth() {
		t.Fatalf("Shape fields wrong: %+v", s)
	}
	if !s.Contains(0) || !s.Contains(7) || s.Contains(8) || s.Contains(-1) {
		t.Fatalf("Shape.Contains bounds wrong: %+v", s)
	}

	if got := n.Issued(); got != 0 {
		t.Fatalf("Issued() = %d before any Inc", got)
	}
	for i := 0; i < 100; i++ {
		n.Inc(i)
	}
	n.IncBatch(3, 28)
	if got := n.Issued(); got != 128 {
		t.Fatalf("Issued() = %d, want 128", got)
	}
}

// TestHopLayout pins the hop's memory layout: each toggle alone on a
// 64-byte line, each balancer's read-only record half a line (so none
// straddles two), and routes holding only the input targets and the ports
// past each balancer's second, so no port is stored twice.
func TestHopLayout(t *testing.T) {
	if got := unsafe.Sizeof(paddedToggle{}); got != 64 {
		t.Fatalf("paddedToggle is %d bytes, want one 64-byte line", got)
	}
	if got := unsafe.Sizeof(balancer{}); got != 32 {
		t.Fatalf("balancer is %d bytes, want half a line", got)
	}
	for name, bs := range batchSpecs(t) {
		n := MustCompile(bs.spec)
		want := bs.spec.FanIn()
		for b := 0; b < bs.spec.Size(); b++ {
			want += max(bs.spec.Balancer(b).FanOut-2, 0)
		}
		if len(n.routes) != want {
			t.Errorf("%s: routes has %d words, want %d", name, len(n.routes), want)
		}
	}
}
