package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// tracer records spans around the benchmark's calls into the program's
// layers: name, category (the layer), start, end, parent, op id and the
// bytes the process allocated in between. Spans stay in memory and are
// written once, at exit, as Chrome trace-event JSON. A nil *tracer is a
// valid no-op, so untraced code paths can share helpers with traced ones.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

type span struct {
	Name, Cat string
	Op        int
	Tid       int
	Pid       int
	Parent    int // index into spans, -1 for a root
	Start     time.Time
	End       time.Time
	Alloc     uint64 // /gc/heap/allocs:bytes delta (0 for spans timed elsewhere)
	allocAt   uint64
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// heapAllocs reads the cumulative heap-allocation counter without stopping
// the world.
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// gcCPU returns cumulative GC CPU seconds and total CPU seconds as the
// runtime estimates them.
func gcCPU() (gc, total float64) {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64()
}

// begin opens a span and returns its id (-1 on a nil tracer).
func (t *tracer) begin(name, cat string, op, tid, parent int) int {
	if t == nil {
		return -1
	}
	a := heapAllocs()
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Cat: cat, Op: op, Tid: tid, Pid: 1, Parent: parent, Start: now, allocAt: a})
	return len(t.spans) - 1
}

// end closes a span opened by begin.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Now()
	a := heapAllocs()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = now
	t.spans[id].Alloc = a - t.spans[id].allocAt
}

// add records a span whose interval was measured elsewhere, such as the
// daemon's own job timestamps.
func (t *tracer) add(s span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, s)
}

func (s span) seconds() float64 { return s.End.Sub(s.Start).Seconds() }

// perOp sums the durations (or, with alloc, the allocations) of the spans
// named name, grouped by op, and returns one value per op that has any.
func (t *tracer) perOp(name string, alloc bool) []float64 {
	sums := map[int]float64{}
	for _, s := range t.spans {
		if s.Name != name {
			continue
		}
		if alloc {
			sums[s.Op] += float64(s.Alloc)
		} else {
			sums[s.Op] += s.seconds()
		}
	}
	ops := make([]int, 0, len(sums))
	for op := range sums {
		ops = append(ops, op)
	}
	sort.Ints(ops)
	out := make([]float64, len(ops))
	for i, op := range ops {
		out[i] = sums[op]
	}
	return out
}

// durations returns the duration of every span named name.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s.seconds())
		}
	}
	return out
}

// selfTimes returns, per span name, the median over spans of the span's
// duration minus the time its children cover. Children of one span run
// one after another, so their durations add up.
func (t *tracer) selfTimes() map[string]float64 {
	child := make([]float64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.seconds()
		}
	}
	byName := map[string][]float64{}
	for i, s := range t.spans {
		byName[s.Name] = append(byName[s.Name], s.seconds()-child[i])
	}
	out := make(map[string]float64, len(byName))
	for name, v := range byName {
		out[name] = median(v)
	}
	return out
}

// childSum returns, per op, the summed duration of the direct children of
// the spans named parent, paired with the parents' own durations.
func (t *tracer) childSum(parent string) (parents, children []float64) {
	for i, s := range t.spans {
		if s.Name != parent {
			continue
		}
		c := 0.0
		for _, k := range t.spans {
			if k.Parent == i {
				c += k.seconds()
			}
		}
		parents = append(parents, s.seconds())
		children = append(children, c)
	}
	return parents, children
}

type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// writeChrome writes the spans as Chrome trace-event JSON (complete "X"
// events, microsecond timestamps), which Perfetto and chrome://tracing
// open offline.
func (t *tracer) writeChrome(path string) error {
	if t == nil {
		return nil
	}
	evs := make([]chromeEvent, 0, len(t.spans))
	for i, s := range t.spans {
		parent := ""
		if s.Parent >= 0 {
			parent = t.spans[s.Parent].Name
		}
		evs = append(evs, chromeEvent{
			Name: s.Name, Cat: s.Cat, Ph: "X",
			Ts:  float64(s.Start.Sub(t.epoch).Nanoseconds()) / 1e3,
			Dur: float64(s.End.Sub(s.Start).Nanoseconds()) / 1e3,
			Pid: s.Pid, Tid: s.Tid,
			Args: map[string]any{"span": i, "op": s.Op, "parent": parent, "parent_span": s.Parent, "alloc_bytes": s.Alloc},
		})
	}
	data, err := json.Marshal(map[string]any{"traceEvents": evs, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
