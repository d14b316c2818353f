package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// tracer records spans around the benchmark's calls into each layer. The
// client is one goroutine, so spans nest strictly: a stack gives each span
// its parent. Spans stay in memory and are written out once, at the end.
type tracer struct {
	epoch time.Time
	spans []span
	stack []int
}

type span struct {
	name       string
	parent     int // -1 for a root span
	start, end time.Duration
}

func newTracer() *tracer { return &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<16)} }

// begin opens a span under the innermost open one and returns its handle.
// On a nil tracer it does nothing, so untraced code paths stay cheap.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.spans = append(t.spans, span{name: name, parent: parent, start: time.Since(t.epoch)})
	id := len(t.spans) - 1
	t.stack = append(t.stack, id)
	return id
}

// end closes span id (and returns its duration), which must be the
// innermost open span.
func (t *tracer) end(id int) time.Duration {
	if t == nil || id < 0 {
		return 0
	}
	t.spans[id].end = time.Since(t.epoch)
	t.stack = t.stack[:len(t.stack)-1]
	return t.spans[id].end - t.spans[id].start
}

// selfTimes sums, per span name, each span's duration minus the part its
// child spans cover. Children of one span never overlap (one client
// goroutine), so the covered part is the sum of their durations.
func (t *tracer) selfTimes() map[string]time.Duration {
	child := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	out := map[string]time.Duration{}
	for i, s := range t.spans {
		out[s.name] += s.end - s.start - child[i]
	}
	return out
}

// write stores the spans as a Chrome trace_event file plus a self-time
// summary, and prints the summary to standard error.
func (t *tracer) write(dir, name string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	evs := make([]event, len(t.spans))
	for i, s := range t.spans {
		evs[i] = event{Name: s.name, Ph: "X", Ts: us(s.start), Dur: us(s.end - s.start), Pid: 1, Tid: 1,
			Args: map[string]int{"id": i, "parent": s.parent}}
	}
	self := t.selfTimes()
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Strings(names)
	summary := map[string]float64{}
	for _, n := range names {
		summary[n] = float64(self[n].Microseconds())
		fmt.Fprintf(os.Stderr, "perfbench: self time %-28s %10.1f ms\n", n, float64(self[n].Microseconds())/1000)
	}
	body, err := json.Marshal(map[string]any{"traceEvents": evs, "selfTimeUS": summary})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name), body, 0o644)
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// quantile is the nearest-rank quantile of v (0 for an empty slice).
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	r := int(math.Ceil(q * float64(len(s))))
	return s[min(max(r, 1), len(s))-1]
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

// ratio is num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
