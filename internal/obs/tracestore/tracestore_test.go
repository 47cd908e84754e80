package tracestore

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"flor.dev/flor/internal/obs"
)

func entry(run string, seq int, durNs int64, slow bool) Entry {
	return Entry{
		TraceID:     fmt.Sprintf("t%06d", seq),
		Run:         run,
		Kind:        "replay",
		StartUnixNs: int64(seq) * 1e9,
		DurNs:       durNs,
		Slow:        slow,
		Spans: []obs.Span{
			{Name: "work", Worker: 0, StartNs: 0, DurNs: durNs, Attrs: map[string]int64{"iters": 3}},
		},
	}
}

func TestAppendGetSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 5; i++ {
		if kept, err := s.Append(entry("alpha", i, int64(i)*1e6, false)); err != nil || !kept {
			t.Fatalf("append %d: kept=%v err=%v", i, kept, err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	e, ok := s2.Get("alpha", "t000003")
	if !ok {
		t.Fatal("trace t000003 lost across reopen")
	}
	if e.DurNs != 3e6 || len(e.Spans) != 1 || e.Spans[0].Attrs["iters"] != 3 {
		t.Fatalf("reloaded entry corrupted: %+v", e)
	}
	if got := s2.LastSeq("alpha"); got != 5 {
		t.Fatalf("LastSeq = %d, want 5", got)
	}
	if got := s2.LastSeq("unknown"); got != 0 {
		t.Fatalf("LastSeq(unknown) = %d, want 0", got)
	}
}

// TestCrashTornTail simulates a crash mid-segment-write: a torn (truncated)
// final line must cost only that line, and reopening must not resurrect it
// or fail.
func TestCrashTornTail(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		if _, err := s.Append(entry("alpha", i, 1e6, false)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear the tail: chop the last 10 bytes off the newest segment, leaving
	// a half-written JSON line.
	segs, err := filepath.Glob(filepath.Join(dir, "traces-*.ndjson"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments: %v", err)
	}
	last := segs[len(segs)-1]
	fi, err := os.Stat(last)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(last, fi.Size()-10); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatalf("reopen after torn tail: %v", err)
	}
	defer s2.Close()
	if _, ok := s2.Get("alpha", "t000002"); !ok {
		t.Fatal("intact entry before the tear must survive")
	}
	if _, ok := s2.Get("alpha", "t000003"); ok {
		t.Fatal("torn entry must not be resurrected")
	}
	if got := s2.LastSeq("alpha"); got != 2 {
		t.Fatalf("LastSeq = %d, want 2 (torn entry excluded)", got)
	}
	// The store must keep working after recovery.
	if kept, err := s2.Append(entry("alpha", 4, 1e6, false)); err != nil || !kept {
		t.Fatalf("append after recovery: kept=%v err=%v", kept, err)
	}
}

// TestSizePruningConcurrent drives concurrent appends through a tiny size
// budget: total bytes must respect the bound (modulo one active segment) and
// recent traces must stay retrievable while old segments are pruned.
func TestSizePruningConcurrent(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir, MaxSegmentBytes: 2048, MaxTotalBytes: 8192})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	const workers, perWorker = 4, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				e := entry(fmt.Sprintf("run%d", w), i+1, 1e6, false)
				if _, err := s.Append(e); err != nil {
					t.Errorf("append: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	if got := s.Bytes(); got > 8192+2048 {
		t.Fatalf("store size %d exceeds budget + one segment", got)
	}
	// Pruning happened (200 entries of ~200 bytes each >> 8 KiB) and the
	// newest entries survived it.
	segs, _ := filepath.Glob(filepath.Join(dir, "traces-*.ndjson"))
	if len(segs) == 0 {
		t.Fatal("no segments on disk")
	}
	found := 0
	for w := 0; w < workers; w++ {
		if _, ok := s.Get(fmt.Sprintf("run%d", w), fmt.Sprintf("t%06d", perWorker)); ok {
			found++
		}
	}
	if found == 0 {
		t.Fatal("every worker's newest trace was pruned")
	}
	// LastSeq survives pruning: it tracks the high-water mark, not the index.
	if got := s.LastSeq("run0"); got != perWorker {
		t.Fatalf("LastSeq = %d, want %d", got, perWorker)
	}
}

// TestSlowCaptureDeterminism exercises the sampling/slow-bypass policy under
// concurrency (run with -race in CI): every slow trace must reach both the
// store and the slow log no matter how appends interleave.
func TestSlowCaptureDeterminism(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir, SampleN: 10})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	const workers, perWorker = 4, 25
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				seq := w*perWorker + i + 1
				slow := seq%5 == 0
				if kept, err := s.Append(entry("alpha", seq, 2e9, slow)); err != nil {
					t.Errorf("append: %v", err)
				} else if slow && !kept {
					t.Errorf("slow trace t%06d sampled out", seq)
				}
			}
		}(w)
	}
	wg.Wait()

	const slowTotal = workers * perWorker / 5
	got := s.Slow(0)
	if len(got) != slowTotal {
		t.Fatalf("slow log has %d entries, want %d", len(got), slowTotal)
	}
	for _, e := range got {
		if !e.Slow || len(e.Spans) != 1 {
			t.Fatalf("slow entry lost detail: %+v", e)
		}
		// Every slow trace must also be retrievable from the main store.
		if _, ok := s.Get("alpha", e.TraceID); !ok {
			t.Fatalf("slow trace %s missing from store", e.TraceID)
		}
	}
	if limited := s.Slow(3); len(limited) != 3 {
		t.Fatalf("Slow(3) = %d entries, want 3", len(limited))
	}
}

func TestHeadSampling(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir, SampleN: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	kept := 0
	for i := 1; i <= 20; i++ {
		ok, err := s.Append(entry("alpha", i, 1e6, false))
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			kept++
		}
	}
	if kept != 5 {
		t.Fatalf("kept %d of 20 with SampleN=4, want 5", kept)
	}
}

func TestAgeRetention(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir, MaxSegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	// Old entries (timestamps far in the past), enough to fill segments.
	old := time.Now().Add(-48 * time.Hour).UnixNano()
	for i := 1; i <= 10; i++ {
		e := entry("alpha", i, 1e6, false)
		e.StartUnixNs = old
		if _, err := s.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()

	s2, err := Open(Options{Dir: dir, MaxAge: time.Hour, MaxSegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	for i := 1; i <= 9; i++ { // all full (rolled) segments were stale
		if _, ok := s2.Get("alpha", fmt.Sprintf("t%06d", i)); ok {
			t.Fatalf("stale trace t%06d survived age retention", i)
		}
	}
}

// FuzzTraceStoreSegment opens a store over arbitrary bytes written as a
// segment file. Open never panics; every line that decodes as an entry comes
// back from Get (the last such line for its run and trace ID), and LastSeq
// is at least the sequence of each of their trace IDs.
func FuzzTraceStoreSegment(f *testing.F) {
	var seg []byte
	for i := 1; i <= 3; i++ {
		line, err := json.Marshal(entry("alpha", i, int64(i)*1e6, i == 2))
		if err != nil {
			f.Fatal(err)
		}
		seg = append(append(seg, line...), '\n')
	}
	f.Add(seg)
	f.Add(append(seg[:len(seg):len(seg)], `{"trace_id":"t000009","run":"al`...)) // a torn tail
	f.Add([]byte(`{"trace_id":"t000004","run":"a"}` + "\n" + `{"trace_id":"t000004","run":"a","kind":"sample"}` + "\n"))
	f.Add([]byte(`{"trace_id":"c","run":"a\u0000b"}` + "\n" + `{"trace_id":"b\u0000c","run":"a"}` + "\n"))
	f.Add([]byte(`{"trace_id":"t-5","run":"x"}` + "\n" + `{"trace_id":"t99999999999999999999","run":"x"}` + "\n" + `{"trace_id":"t+7","run":"x"}` + "\nnull\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "traces-00000001.ndjson"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(Options{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		type id struct{ run, traceID string }
		want := map[id]Entry{}
		for _, line := range bytes.Split(data, []byte{'\n'}) {
			var e Entry
			if json.Unmarshal(line, &e) == nil {
				want[id{e.Run, e.TraceID}] = e
			}
		}
		for k, e := range want {
			if got, ok := s.Get(k.run, k.traceID); !ok || !reflect.DeepEqual(got, e) {
				t.Fatalf("Get(%q, %q) = %+v, %v; the segment holds %+v", k.run, k.traceID, got, ok, e)
			}
			if n, ok := parseSeq(k.traceID); ok && s.LastSeq(k.run) < n {
				t.Fatalf("LastSeq(%q) = %d below the sequence %d of trace %q", k.run, s.LastSeq(k.run), n, k.traceID)
			}
		}
	})
}
