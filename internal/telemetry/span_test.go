package telemetry

import (
	"context"
	"testing"
	"time"
)

// TestSpanNesting builds a three-level span tree and asserts the
// hierarchy invariant: every child's wall clock is ≤ its parent's.
func TestSpanNesting(t *testing.T) {
	r := New()
	ctx := context.Background()

	ctx, root := r.StartSpan(ctx, "pipeline/run")
	cctx, child := r.StartSpan(ctx, "synth/file")
	_, grand := r.StartSpan(cctx, "synth/gram")
	time.Sleep(2 * time.Millisecond)
	grand.AddCount(7)
	grand.AddBytes(1024)
	gw := grand.End()
	time.Sleep(time.Millisecond)
	cw := child.End()
	rw := root.End()

	if gw > cw || cw > rw {
		t.Fatalf("span walls not nested: grand %v, child %v, root %v", gw, cw, rw)
	}
	if gw <= 0 {
		t.Fatalf("grandchild wall = %v, want > 0", gw)
	}

	roots := r.RootSpans()
	if len(roots) != 1 {
		t.Fatalf("got %d root spans, want 1", len(roots))
	}
	rep := roots[0]
	if rep.Name != "pipeline/run" || len(rep.Children) != 1 {
		t.Fatalf("unexpected root: %+v", rep)
	}
	c := rep.Children[0]
	if c.Name != "synth/file" || len(c.Children) != 1 {
		t.Fatalf("unexpected child: %+v", c)
	}
	g := c.Children[0]
	if g.Name != "synth/gram" || g.Count != 7 || g.Bytes != 1024 {
		t.Fatalf("unexpected grandchild: %+v", g)
	}
	if g.WallNs > c.WallNs || c.WallNs > rep.WallNs {
		t.Fatalf("report walls not nested: %d %d %d", g.WallNs, c.WallNs, rep.WallNs)
	}

	// Ending publishes into the histogram named after the span.
	if got := r.Histogram("synth_gram_seconds").Count(); got != 1 {
		t.Fatalf("synth_gram_seconds count = %d, want 1", got)
	}
}

func TestSpanDisabledStillMeasures(t *testing.T) {
	r := New()
	r.SetEnabled(false)
	ctx, sp := r.StartSpan(context.Background(), "synth/load")
	if ctx != context.Background() {
		t.Fatal("disabled StartSpan wrapped the context")
	}
	time.Sleep(time.Millisecond)
	if d := sp.End(); d < 500*time.Microsecond {
		t.Fatalf("disabled span wall = %v, want ≥ 0.5ms", d)
	}
	if len(r.RootSpans()) != 0 {
		t.Fatal("disabled span was retained")
	}
	if r.Histogram("synth_load_seconds").Count() != 0 {
		t.Fatal("disabled span published to a histogram")
	}
	// End is idempotent and nil-safe.
	first := sp.End()
	if again := sp.End(); again != first {
		t.Fatalf("second End = %v, want %v", again, first)
	}
	var nilSpan *Span
	if nilSpan.End() != 0 || nilSpan.Wall() != 0 || nilSpan.Name() != "" {
		t.Fatal("nil span misbehaved")
	}
	nilSpan.AddBytes(1)
	nilSpan.AddCount(1)
}

func TestSpanFromContext(t *testing.T) {
	r := New()
	if SpanFromContext(context.Background()) != nil {
		t.Fatal("empty context carried a span")
	}
	ctx, sp := r.StartSpan(context.Background(), "a")
	if SpanFromContext(ctx) != sp {
		t.Fatal("context did not carry the started span")
	}
	sp.End()
}

func TestRootSpanRetentionBound(t *testing.T) {
	r := New()
	for i := 0; i < maxRootSpans+10; i++ {
		_, sp := r.StartSpan(context.Background(), "x")
		sp.End()
	}
	if got := len(r.RootSpans()); got != maxRootSpans {
		t.Fatalf("retained %d roots, want %d", got, maxRootSpans)
	}
}

func TestHistName(t *testing.T) {
	if got := HistName("synth/gram"); got != "synth_gram_seconds" {
		t.Fatalf("HistName = %q", got)
	}
}

// TestForkKeepsItsOwnRoots: StartSpan begins on the registry the
// context carries, and a fork shares its parent's switch and series —
// span histograms included — but retains its own root spans.
func TestForkKeepsItsOwnRoots(t *testing.T) {
	r := New()
	f := r.Fork()
	ctx := WithRegistry(context.Background(), f)
	if FromContext(ctx) != f || FromContext(context.Background()) != Default {
		t.Fatal("FromContext does not return the registry the context carries, or Default")
	}
	cctx, root := StartSpan(ctx, "synth/rank")
	_, child := StartSpan(cctx, "synth/gram")
	child.End()
	root.End()
	if got := f.RootSpans(); len(got) != 1 || got[0].Name != "synth/rank" || len(got[0].Children) != 1 {
		t.Fatalf("fork retains roots %+v, want the one synth/rank tree", got)
	}
	if got := r.RootSpans(); len(got) != 0 {
		t.Fatalf("parent retains the fork's roots %+v", got)
	}
	if n := r.Histogram(HistName("synth/gram")).Count(); n != 1 {
		t.Fatalf("parent's synth_gram_seconds holds %d observations, want the fork's 1", n)
	}
	f.Counter("c_total").Inc()
	if r.Counter("c_total").Value() != 1 {
		t.Fatal("a fork's counter is not its parent's")
	}
	r.SetEnabled(false)
	if f.Enabled() {
		t.Fatal("a fork does not share its parent's switch")
	}
}
