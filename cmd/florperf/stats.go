package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (the same rule as Python's statistics.quantiles with
// method="inclusive"); xs need not be sorted and is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[lo+1]*frac
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// ratio is a/b, and 0 when b is 0 (a share of nothing).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func nsToMs(ns int64) float64 { return float64(ns) / 1e6 }

func mib(b int64) float64 { return float64(b) / (1 << 20) }

// mibps is a throughput in MiB per second.
func mibps(bytes int64, d time.Duration) float64 {
	return ratio(mib(bytes), d.Seconds())
}

// stat is one reported metric: the value the result line carries, and the
// spread of the samples it was taken from.
type stat struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	N     int     `json:"n"`
}

// statOf reports v as the value of a metric computed from samples.
func statOf(v float64, samples []float64) stat {
	s := stat{Value: v, N: len(samples)}
	if len(samples) == 0 {
		s.Min, s.Max, s.N = v, v, 1
		return s
	}
	s.Min, s.Max = samples[0], samples[0]
	for _, x := range samples {
		s.Min, s.Max = min(s.Min, x), max(s.Max, x)
	}
	return s
}

// medianOf reports the median of samples.
func medianOf(samples []float64) stat { return statOf(median(samples), samples) }

// single reports a value measured once.
func single(v float64) stat { return statOf(v, nil) }

// windowResult is what a timed window measured.
type windowResult struct {
	p50Ms, perSec stat
	// slowdown is what recording costs against running the plain training
	// script, over the window's pairs; a query window records nothing and
	// leaves it to the set-ups' recordings.
	slowdown stat
	// stored is bytes on disk per byte of checkpoint payload.
	stored float64
	// Context, not part of the contract.
	p90Ms, vanillaMs stat
}

// rssMiB reads one resident-set figure (a /proc/self/status key such as
// RssAnon or RssFile) in MiB.
func rssMiB(key string) float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), key+":"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024
		}
	}
	return 0
}

// rssSampler samples the process's anonymous resident memory (heap, stacks,
// arenas: what the process cannot give back) every 20 ms and reports the
// level it stays under 95 % of the time. The maximum is not used: on a 6 MiB
// process such as record_train it is one collector-timing spike, 7 to 19 MiB
// from run to run, where the 95th percentile repeats within a few percent.
// The kernel's own high-water mark (VmHWM) is not used either: it also counts
// file-backed pages of mapped packs, which are page cache the kernel reclaims
// at will and which grow with the number of queries served, so a faster
// daemon would read as a hungrier one; the trace reports those separately.
type rssSampler struct {
	stop    chan struct{}
	done    chan struct{}
	once    sync.Once
	samples []float64
}

func startRSSSampler() *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			s.samples = append(s.samples, rssMiB("RssAnon"))
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

// p95 stops the sampler, waits for it, and reports the samples' 95th
// percentile; later calls return the same figure.
func (s *rssSampler) p95() stat {
	s.once.Do(func() { close(s.stop) })
	<-s.done
	return statOf(quantile(s.samples, 0.95), s.samples)
}

// dirBytes is the total size of the regular files under dir.
func dirBytes(dir string) int64 {
	var total int64
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	for _, e := range entries {
		if e.IsDir() {
			total += dirBytes(dir + "/" + e.Name())
		} else if fi, err := e.Info(); err == nil {
			total += fi.Size()
		}
	}
	return total
}

// span is one benchmark-owned trace span: a call into one layer, made on
// behalf of request Req. Spans of one request share Req, and the span that
// caused another encloses it in time. Layer probes that serve no request
// have Req 0.
type span struct {
	Req     int    `json:"req,omitempty"`
	Layer   string `json:"layer"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// tracer keeps the benchmark's spans in memory; a nil tracer only times.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// timed runs f as a span and returns how long it took.
func (t *tracer) timed(layer, name string, req int, f func()) time.Duration {
	start := time.Now()
	f()
	d := time.Since(start)
	if t != nil {
		t.mu.Lock()
		s := start.Sub(t.t0).Nanoseconds()
		t.spans = append(t.spans, span{Req: req, Layer: layer, Name: name, StartNs: s, EndNs: s + d.Nanoseconds()})
		t.mu.Unlock()
	}
	return d
}

// writeNDJSON writes the spans in start order, one JSON object per line.
func (t *tracer) writeNDJSON(w io.Writer) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	sort.SliceStable(t.spans, func(i, j int) bool { return t.spans[i].StartNs < t.spans[j].StartNs })
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			return fmt.Errorf("write spans: %w", err)
		}
	}
	return bw.Flush()
}
