package obs

import (
	"context"
	"sync"
	"testing"
	"time"
)

func TestTraceSpanTree(t *testing.T) {
	tc := NewTracer(TracerConfig{SampleRate: 1, RingSize: 8})
	tr := tc.StartTrace()
	if tr.ID() == 0 || len(tr.IDString()) != 16 {
		t.Fatalf("trace id = %d (%q)", tr.ID(), tr.IDString())
	}
	root := tr.Start("topk", NoSpan)
	tune := tr.Start("tune", root)
	tr.End(tune)
	scan := tr.Start("scan", root)
	verify := tr.Start("verify", scan)
	tr.End(verify)
	tr.End(scan)
	tr.End(root)
	if tr.Len() != 4 {
		t.Fatalf("len = %d, want 4", tr.Len())
	}

	id := tr.IDString()
	if !tc.Finish(tr, TraceMeta{Kind: "topk", Rows: 3, Slow: false}) {
		t.Fatal("SampleRate 1 must retain every trace")
	}
	snaps := tc.Snapshots()
	if len(snaps) != 1 {
		t.Fatalf("snapshots = %d, want 1", len(snaps))
	}
	snap := snaps[0]
	if snap.TraceID != id || snap.Kind != "topk" || snap.Rows != 3 || snap.Slow {
		t.Fatalf("snapshot meta wrong: %+v", snap)
	}
	if len(snap.Spans) != 4 {
		t.Fatalf("snapshot spans = %d, want 4", len(snap.Spans))
	}
	if snap.Spans[0].Name != "topk" || snap.Spans[0].Parent != int32(NoSpan) {
		t.Fatalf("root span wrong: %+v", snap.Spans[0])
	}
	for i, want := range []struct {
		name   string
		parent int32
	}{{"tune", 0}, {"scan", 0}, {"verify", 2}} {
		if sp := snap.Spans[i+1]; sp.Name != want.name || sp.Parent != want.parent {
			t.Fatalf("span %d = %q under %d, want %q under %d", i+1, sp.Name, sp.Parent, want.name, want.parent)
		}
	}
}

func TestTailSampling(t *testing.T) {
	// Rate 0: fast traces are never retained, slow ones always.
	tc := NewTracer(TracerConfig{SampleRate: 0, RingSize: 8})
	for i := 0; i < 50; i++ {
		tr := tc.StartTrace()
		tr.End(tr.Start("req", NoSpan))
		if tc.Finish(tr, TraceMeta{Kind: "topk"}) {
			t.Fatal("rate 0 retained a fast trace")
		}
	}
	tr := tc.StartTrace()
	tr.End(tr.Start("req", NoSpan))
	if !tc.Finish(tr, TraceMeta{Kind: "topk", Slow: true}) {
		t.Fatal("slow trace must always be retained")
	}
	if tc.Finished() != 51 || tc.Retained() != 1 {
		t.Fatalf("finished/retained = %d/%d, want 51/1", tc.Finished(), tc.Retained())
	}
	snaps := tc.Snapshots()
	if len(snaps) != 1 || !snaps[0].Slow {
		t.Fatalf("snapshots = %+v", snaps)
	}
}

func TestRingEvictionNewestFirst(t *testing.T) {
	tc := NewTracer(TracerConfig{SampleRate: 1, RingSize: 2})
	var ids []string
	for i := 0; i < 3; i++ {
		tr := tc.StartTrace()
		ids = append(ids, tr.IDString())
		tc.Finish(tr, TraceMeta{})
	}
	snaps := tc.Snapshots()
	if len(snaps) != 2 {
		t.Fatalf("ring holds %d, want 2", len(snaps))
	}
	if snaps[0].TraceID != ids[2] || snaps[1].TraceID != ids[1] {
		t.Fatalf("ring order = [%s %s], want newest first [%s %s]",
			snaps[0].TraceID, snaps[1].TraceID, ids[2], ids[1])
	}
}

func TestTraceCapacityDrops(t *testing.T) {
	tc := NewTracer(TracerConfig{SampleRate: 1, RingSize: 2})
	tr := tc.StartTrace()
	root := tr.Start("req", NoSpan)
	for i := 0; i < MaxSpans+10; i++ {
		tr.Start("extra", root)
	}
	if tr.Len() != MaxSpans {
		t.Fatalf("len = %d, want %d", tr.Len(), MaxSpans)
	}
	if tr.Dropped() != 11 {
		t.Fatalf("dropped = %d, want 11", tr.Dropped())
	}
	tc.Finish(tr, TraceMeta{})
	if got := tc.Snapshots()[0].DroppedSpans; got != 11 {
		t.Fatalf("snapshot dropped = %d, want 11", got)
	}
	// A pooled trace must come back clean.
	tr2 := tc.StartTrace()
	if tr2.Len() != 0 || tr2.Dropped() != 0 {
		t.Fatalf("reused trace not reset: len=%d dropped=%d", tr2.Len(), tr2.Dropped())
	}
	tc.Finish(tr2, TraceMeta{})
}

func TestSpanContext(t *testing.T) {
	tc := NewTracer(TracerConfig{SampleRate: 1, RingSize: 2})
	tr := tc.StartTrace()
	root := tr.Start("req", NoSpan)
	ctx := ContextWithSpan(context.Background(), tr, root)
	gotTr, gotParent := SpanFrom(ctx)
	if gotTr != tr || gotParent != root {
		t.Fatalf("SpanFrom = (%p, %d), want (%p, %d)", gotTr, gotParent, tr, root)
	}
	if gotTr, gotParent := SpanFrom(context.Background()); gotTr != nil || gotParent != NoSpan {
		t.Fatalf("empty ctx: (%p, %d)", gotTr, gotParent)
	}
	if gotTr, gotParent := SpanFrom(nil); gotTr != nil || gotParent != NoSpan {
		t.Fatalf("nil ctx: (%p, %d)", gotTr, gotParent)
	}
	tc.Finish(tr, TraceMeta{})
}

func TestNilTraceAndTracerAreSafe(t *testing.T) {
	var tr *Trace
	ref := tr.Start("x", NoSpan)
	if ref != NoSpan {
		t.Fatalf("nil trace Start = %d", ref)
	}
	tr.End(ref)
	if tr.Len() != 0 || tr.Dropped() != 0 || tr.ID() != 0 || tr.IDString() != "" || tr.Spans() != nil {
		t.Fatal("nil trace accessors must be zero")
	}
	var tc *Tracer
	if tc.StartTrace() != nil || tc.Finish(nil, TraceMeta{}) || tc.Snapshots() != nil {
		t.Fatal("nil tracer must be inert")
	}
	if tc.Retained() != 0 || tc.Finished() != 0 {
		t.Fatal("nil tracer counters must be zero")
	}
}

// TestTraceRecordingDoesNotAllocate pins the hot-path contract for tracing:
// starting/ending spans on a live trace, and the full trace lifecycle when
// the trace is NOT retained, allocate nothing in steady state.
func TestTraceRecordingDoesNotAllocate(t *testing.T) {
	tc := NewTracer(TracerConfig{SampleRate: 0, RingSize: 2})
	// Warm the pool so the measured runs only recycle.
	tc.Finish(tc.StartTrace(), TraceMeta{})

	if n := testing.AllocsPerRun(500, func() {
		tr := tc.StartTrace()
		root := tr.Start("req", NoSpan)
		scan := tr.Start("scan", root)
		tr.End(scan)
		tr.End(root)
		tc.Finish(tr, TraceMeta{Kind: "topk", Rows: 1})
	}); n > 0 {
		t.Fatalf("unretained trace lifecycle allocates %.1f times per run, want 0", n)
	}
}

// TestConcurrentSpanRecording exercises many goroutines appending spans to
// one trace under -race.
func TestConcurrentSpanRecording(t *testing.T) {
	tc := NewTracer(TracerConfig{SampleRate: 1, RingSize: 4})
	tr := tc.StartTrace()
	root := tr.Start("req", NoSpan)
	var wg sync.WaitGroup
	for range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				ref := tr.Start("scan", root)
				time.Sleep(time.Microsecond)
				tr.End(ref)
			}
		}()
	}
	wg.Wait()
	tr.End(root)
	if tr.Len() != 33 {
		t.Fatalf("len = %d, want 33", tr.Len())
	}
	tc.Finish(tr, TraceMeta{})
	snap := tc.Snapshots()[0]
	if len(snap.Spans) != 33 {
		t.Fatalf("snapshot spans = %d, want 33", len(snap.Spans))
	}
	for _, sp := range snap.Spans[1:] {
		if sp.Parent != 0 || sp.DurationNS <= 0 {
			t.Fatalf("concurrent span wrong: %+v", sp)
		}
	}
}
