package obs

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestNilSafety drives every public method through a nil recorder (and
// the nil handles it hands out): the whole package must collapse to
// no-ops, because instrumented code carries no "is observability on?"
// branches.
func TestNilSafety(t *testing.T) {
	var r *Recorder

	if r.Child() != nil {
		t.Error("nil.Child() != nil")
	}
	c := r.Counter("x")
	if c != nil {
		t.Error("nil.Counter() != nil")
	}
	c.Add(5)
	if got := c.Value(); got != 0 {
		t.Errorf("nil counter value = %d", got)
	}
	r.Add("x", 1)
	h := r.Histogram("h", []float64{1, 2})
	if h != nil {
		t.Error("nil.Histogram() != nil")
	}
	h.Observe(1.5)
	r.Observe("h", []float64{1, 2}, 1.5)

	ctx := context.Background()
	ctx2, span := r.StartSpan(ctx, "s")
	if ctx2 != ctx {
		t.Error("nil.StartSpan changed ctx")
	}
	if span != nil {
		t.Error("nil.StartSpan returned a span")
	}
	span.SetK(1)
	span.End(errors.New("boom"))

	if got := WithRecorder(ctx, nil); got != ctx {
		t.Error("WithRecorder(nil) changed ctx")
	}
	if From(ctx) != nil {
		t.Error("From(empty ctx) != nil")
	}

	snap := r.Snapshot()
	if len(snap.Counters) != 0 || len(snap.Histograms) != 0 || len(snap.Spans) != 0 {
		t.Errorf("nil snapshot not empty: %+v", snap)
	}
	r.Merge(snap)
	if snap.Fingerprint() != "" {
		t.Errorf("empty fingerprint = %q", snap.Fingerprint())
	}
}

// TestContextRoundTrip checks WithRecorder/From carry the recorder.
func TestContextRoundTrip(t *testing.T) {
	r := New()
	ctx := WithRecorder(context.Background(), r)
	if From(ctx) != r {
		t.Fatal("From did not return the recorder put on ctx")
	}
}

// TestConcurrentCounters hammers shared counter and histogram handles
// from many goroutines; run under -race this is the data-race proof,
// and the totals prove no increment is lost.
func TestConcurrentCounters(t *testing.T) {
	r := New()
	const workers = 8
	const perWorker = 1000
	bounds := []float64{250, 500, 750}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Mix shared handles with by-name lookups.
			c := r.Counter("ops")
			h := r.Histogram("vals", bounds)
			for i := 0; i < perWorker; i++ {
				c.Add(1)
				r.Add("ops2", 2)
				h.Observe(float64(i))
				r.Observe("vals", bounds, float64(i))
			}
		}()
	}
	wg.Wait()

	snap := r.Snapshot()
	if got := snap.Counters["ops"]; got != workers*perWorker {
		t.Errorf("ops = %d, want %d", got, workers*perWorker)
	}
	if got := snap.Counters["ops2"]; got != 2*workers*perWorker {
		t.Errorf("ops2 = %d, want %d", got, 2*workers*perWorker)
	}
	h := snap.Histograms["vals"]
	if h.Count != 2*workers*perWorker {
		t.Errorf("hist count = %d, want %d", h.Count, 2*workers*perWorker)
	}
	var inBuckets int64
	for _, c := range h.Counts {
		inBuckets += c
	}
	if inBuckets != h.Count {
		t.Errorf("bucket sum %d != count %d", inBuckets, h.Count)
	}
	if h.Min != 0 || h.Max != perWorker-1 {
		t.Errorf("min/max = %g/%g, want 0/%d", h.Min, h.Max, perWorker-1)
	}
}

// TestHistogramBuckets pins the bucketing rule: a value lands in the
// first bucket whose upper bound is >= v, with an overflow bucket past
// the last bound.
func TestHistogramBuckets(t *testing.T) {
	cases := []struct {
		v      float64
		bucket int
	}{
		{0.5, 0}, {1, 0}, {1.0001, 1}, {2, 1}, {2.5, 2}, {4, 2}, {4.5, 3}, {100, 3},
	}
	for _, tc := range cases {
		r := New()
		r.Observe("h", []float64{1, 2, 4}, tc.v)
		h := r.Snapshot().Histograms["h"]
		if len(h.Counts) != 4 {
			t.Fatalf("counts len = %d, want 4", len(h.Counts))
		}
		for i, c := range h.Counts {
			want := int64(0)
			if i == tc.bucket {
				want = 1
			}
			if c != want {
				t.Errorf("Observe(%g): bucket %d = %d, want %d", tc.v, i, c, want)
			}
		}
	}
}

// TestHistogramObserveAll: a batch observation leaves the histogram
// exactly as observing each value in order does, and a nil histogram
// ignores it.
func TestHistogramObserveAll(t *testing.T) {
	vs := []float64{3, 0.5, 100, 2, -1, 4.5, 0.25}
	one, all := New(), New()
	for _, v := range vs {
		one.Observe("h", []float64{1, 2, 4}, v)
	}
	all.Histogram("h", []float64{1, 2, 4}).ObserveAll(vs)
	if got, want := all.Snapshot().Histograms["h"], one.Snapshot().Histograms["h"]; !reflect.DeepEqual(got, want) {
		t.Errorf("ObserveAll gave %+v, one by one %+v", got, want)
	}
	var h *Histogram
	h.ObserveAll(vs)
}

// TestSpanNesting checks parent links follow the context chain, and
// that sibling spans of the same parent don't nest under each other.
func TestSpanNesting(t *testing.T) {
	r := New()
	ctx := WithRecorder(context.Background(), r)

	ctx1, root := r.StartSpan(ctx, "root")
	ctx2, child := r.StartSpan(ctx1, "child")
	_, grand := r.StartSpan(ctx2, "grand")
	grand.End(nil)
	child.End(nil)
	// A sibling started from the root's ctx, after child ended.
	_, sib := r.StartSpan(ctx1, "sib")
	sib.SetK(0.001)
	sib.End(errors.New("boom"))
	root.End(nil)

	spans := r.Snapshot().Spans
	if len(spans) != 4 {
		t.Fatalf("got %d spans, want 4", len(spans))
	}
	// End order: grand, child, sib, root.
	byName := map[string]SpanRecord{}
	for _, sp := range spans {
		byName[sp.Name] = sp
	}
	if got, want := []string{spans[0].Name, spans[1].Name, spans[2].Name, spans[3].Name},
		[]string{"grand", "child", "sib", "root"}; !reflect.DeepEqual(got, want) {
		t.Errorf("end order = %v, want %v", got, want)
	}
	if byName["root"].Parent != 0 {
		t.Errorf("root parent = %d, want 0", byName["root"].Parent)
	}
	if byName["child"].Parent != byName["root"].ID {
		t.Errorf("child parent = %d, want root %d", byName["child"].Parent, byName["root"].ID)
	}
	if byName["grand"].Parent != byName["child"].ID {
		t.Errorf("grand parent = %d, want child %d", byName["grand"].Parent, byName["child"].ID)
	}
	if byName["sib"].Parent != byName["root"].ID {
		t.Errorf("sib parent = %d, want root %d", byName["sib"].Parent, byName["root"].ID)
	}
	if !byName["sib"].KSet || byName["sib"].K != 0.001 {
		t.Errorf("sib K = %v/%v, want 0.001/set", byName["sib"].K, byName["sib"].KSet)
	}
	if byName["sib"].Err != "boom" {
		t.Errorf("sib err = %q, want boom", byName["sib"].Err)
	}
	if byName["grand"].KSet {
		t.Error("grand K set without SetK")
	}
}

// TestMerge checks child snapshots fold into a parent with counters
// added, histograms merged bucket-wise, and span IDs remapped with
// intra-batch parent links preserved.
func TestMerge(t *testing.T) {
	parent := New()
	parent.Add("shared", 1)
	_, ps := parent.StartSpan(context.Background(), "parent.span")
	ps.End(nil)

	child := parent.Child()
	if child == parent {
		t.Fatal("child is the parent")
	}
	child.Add("shared", 2)
	child.Add("child.only", 5)
	child.Observe("h", []float64{1, 2}, 1.5)
	cctx := WithRecorder(context.Background(), child)
	cctx, outer := child.StartSpan(cctx, "outer")
	_, inner := child.StartSpan(cctx, "inner")
	inner.End(nil)
	outer.End(nil)

	parent.Merge(child.Snapshot())
	snap := parent.Snapshot()

	if got := snap.Counters["shared"]; got != 3 {
		t.Errorf("shared = %d, want 3", got)
	}
	if got := snap.Counters["child.only"]; got != 5 {
		t.Errorf("child.only = %d, want 5", got)
	}
	if got := snap.Histograms["h"].Count; got != 1 {
		t.Errorf("hist count = %d, want 1", got)
	}
	byName := map[string]SpanRecord{}
	ids := map[int64]bool{}
	for _, sp := range snap.Spans {
		byName[sp.Name] = sp
		if ids[sp.ID] {
			t.Errorf("duplicate span ID %d after merge", sp.ID)
		}
		ids[sp.ID] = true
	}
	if len(snap.Spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(snap.Spans))
	}
	if byName["inner"].Parent != byName["outer"].ID {
		t.Errorf("inner parent = %d, want outer %d (intra-batch link lost)",
			byName["inner"].Parent, byName["outer"].ID)
	}
	if byName["outer"].Parent != 0 {
		t.Errorf("outer parent = %d, want 0 (extra-batch parent must clear)", byName["outer"].Parent)
	}
}

// TestMergeDeterministic checks that merging the same children in the
// same order yields identical fingerprints regardless of how the
// children were produced (the flow's worker-count independence).
func TestMergeDeterministic(t *testing.T) {
	build := func() string {
		parent := New()
		kids := make([]*Recorder, 3)
		for i := range kids {
			kids[i] = parent.Child()
		}
		var wg sync.WaitGroup
		for i, kid := range kids {
			wg.Add(1)
			go func(i int, kid *Recorder) {
				defer wg.Done()
				kid.Add("n", int64(i+1))
				kid.Observe("h", []float64{1, 10}, float64(i))
				_, sp := kid.StartSpan(context.Background(), "work")
				sp.End(nil)
			}(i, kid)
		}
		wg.Wait()
		// Merge in fixed (ladder) order, whatever order the work ran in.
		for _, kid := range kids {
			parent.Merge(kid.Snapshot())
		}
		return parent.Snapshot().Fingerprint()
	}
	want := build()
	for i := 0; i < 10; i++ {
		if got := build(); got != want {
			t.Fatalf("fingerprint varies across runs:\n%s\nvs\n%s", got, want)
		}
	}
}

// TestJSONLRoundTrip serializes a populated snapshot and parses it
// back; the deterministic content must survive unchanged.
func TestJSONLRoundTrip(t *testing.T) {
	r := New()
	r.Add("a.count", 7)
	r.Add("zero", 0)
	r.Observe("h", []float64{1, 2, 4}, 0.5)
	r.Observe("h", []float64{1, 2, 4}, 3)
	ctx := WithRecorder(context.Background(), r)
	ctx, outer := r.StartSpan(ctx, "outer")
	outer.SetK(0.002)
	_, inner := r.StartSpan(ctx, "inner")
	inner.End(errors.New("inner failed"))
	outer.End(nil)

	snap := r.Snapshot()
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, snap); err != nil {
		t.Fatal(err)
	}
	for i, line := range strings.Split(strings.TrimRight(buf.String(), "\n"), "\n") {
		if !strings.HasPrefix(line, `{"ev":"`) {
			t.Errorf("line %d is not an event object: %s", i, line)
		}
	}

	got, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Counters, snap.Counters) {
		t.Errorf("counters: got %v, want %v", got.Counters, snap.Counters)
	}
	if len(got.Spans) != len(snap.Spans) {
		t.Fatalf("spans: got %d, want %d", len(got.Spans), len(snap.Spans))
	}
	for i := range got.Spans {
		g, w := got.Spans[i], snap.Spans[i]
		if g.Name != w.Name || g.ID != w.ID || g.Parent != w.Parent ||
			g.K != w.K || g.KSet != w.KSet || g.Err != w.Err {
			t.Errorf("span %d: got %+v, want %+v", i, g, w)
		}
		// Times round to microseconds in transit.
		if d := g.Wall - w.Wall.Truncate(time.Microsecond); d != 0 {
			t.Errorf("span %d wall drift %v", i, d)
		}
	}
	gh, wh := got.Histograms["h"], snap.Histograms["h"]
	if !reflect.DeepEqual(gh.Bounds, wh.Bounds) || !reflect.DeepEqual(gh.Counts, wh.Counts) ||
		gh.Count != wh.Count || gh.Sum != wh.Sum || gh.Min != wh.Min || gh.Max != wh.Max {
		t.Errorf("hist: got %+v, want %+v", gh, wh)
	}
	if got.Fingerprint() != snap.Fingerprint() {
		t.Errorf("fingerprint changed across round-trip:\n%s\nvs\n%s",
			got.Fingerprint(), snap.Fingerprint())
	}
}

// TestReadJSONLRejectsUnknown pins the versioning rule: unknown event
// kinds are an error, not silently dropped.
func TestReadJSONLRejectsUnknown(t *testing.T) {
	_, err := ReadJSONL(strings.NewReader(`{"ev":"summary","name":"x"}` + "\n"))
	if err == nil {
		t.Fatal("unknown event kind accepted")
	}
}

// TestWriteProm smoke-checks the text exposition: counter totals,
// cumulative buckets, and the +Inf bucket equaling the count.
func TestWriteProm(t *testing.T) {
	r := New()
	r.Add("route.nets", 42)
	r.Observe("route.congestion", []float64{0.5, 1}, 0.25)
	r.Observe("route.congestion", []float64{0.5, 1}, 2)
	_, sp := r.StartSpan(context.Background(), "stage.route")
	sp.End(nil)

	var buf bytes.Buffer
	if err := WriteProm(&buf, r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"casyn_route_nets_total 42",
		`casyn_route_congestion_bucket{le="0.5"} 1`,
		`casyn_route_congestion_bucket{le="1"} 1`,
		`casyn_route_congestion_bucket{le="+Inf"} 2`,
		"casyn_route_congestion_count 2",
		`casyn_span_count{name="stage.route"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prom output missing %q:\n%s", want, out)
		}
	}
}

// TestWriteSpanTree smoke-checks the indented tree rendering.
func TestWriteSpanTree(t *testing.T) {
	r := New()
	ctx := WithRecorder(context.Background(), r)
	ctx, outer := r.StartSpan(ctx, "outer")
	_, inner := r.StartSpan(ctx, "inner")
	inner.End(nil)
	outer.End(nil)

	var buf bytes.Buffer
	if err := WriteSpanTree(&buf, r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2:\n%s", len(lines), buf.String())
	}
	if !strings.HasPrefix(lines[0], "outer") {
		t.Errorf("first line = %q, want outer at root", lines[0])
	}
	if !strings.HasPrefix(lines[1], "  inner") {
		t.Errorf("second line = %q, want indented inner", lines[1])
	}
}

// TestStartProfile exercises the flag-gated profile capture end to end
// for each mode, plus the disabled and invalid cases.
func TestStartProfile(t *testing.T) {
	stop, err := StartProfile("", "ignored")
	if err != nil {
		t.Fatalf("disabled profile: %v", err)
	}
	if err := stop(); err != nil {
		t.Fatalf("disabled stop: %v", err)
	}
	if _, err := StartProfile("flames", "x"); err == nil {
		t.Fatal("invalid mode accepted")
	}
	for _, mode := range []string{"cpu", "heap", "mutex"} {
		t.Run(mode, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), mode+".pprof")
			stop, err := StartProfile(mode, path)
			if err != nil {
				t.Fatal(err)
			}
			if err := stop(); err != nil {
				t.Fatal(err)
			}
			st, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			if st.Size() == 0 && mode != "cpu" {
				t.Errorf("%s profile is empty", mode)
			}
		})
	}
}

func TestGauges(t *testing.T) {
	rec := New()
	rec.SetGauge("serve.queue_depth", 7)
	rec.Gauge("serve.queue_depth").Add(-2)
	rec.Gauge("serve.running").Set(3)

	// Nil safety mirrors counters/histograms.
	var nilRec *Recorder
	nilRec.SetGauge("x", 1)
	nilRec.Gauge("x").Add(1)
	if nilRec.Gauge("x").Value() != 0 {
		t.Error("nil recorder gauge not a no-op")
	}

	snap := rec.Snapshot()
	if snap.Gauges["serve.queue_depth"] != 5 || snap.Gauges["serve.running"] != 3 {
		t.Fatalf("gauges = %v", snap.Gauges)
	}

	// JSONL round trip.
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, snap); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Gauges["serve.queue_depth"] != 5 || back.Gauges["serve.running"] != 3 {
		t.Errorf("round-tripped gauges = %v", back.Gauges)
	}

	// Prometheus export renders a gauge type with the casyn_ prefix.
	var prom strings.Builder
	if err := WriteProm(&prom, snap); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(prom.String(), "# TYPE casyn_serve_queue_depth gauge\ncasyn_serve_queue_depth 5\n") {
		t.Errorf("prom output missing gauge:\n%s", prom.String())
	}

	// Fingerprint covers gauges; merge folds them additively.
	if !strings.Contains(snap.Fingerprint(), "gauge serve.queue_depth=5\n") {
		t.Errorf("fingerprint missing gauge:\n%s", snap.Fingerprint())
	}
	parent := New()
	parent.SetGauge("serve.queue_depth", 1)
	parent.Merge(snap)
	if got := parent.Gauge("serve.queue_depth").Value(); got != 6 {
		t.Errorf("merged gauge = %d, want 6", got)
	}
}
