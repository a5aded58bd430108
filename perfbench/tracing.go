package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by this package around
// the call. Spans of one request or cell share group.
type span struct {
	id, parent int
	name       string
	group      string
	start, end time.Duration // since the tracer's origin
}

// tracer keeps spans in memory; write puts them out at the end of the
// run. A nil *tracer records nothing, which is how untraced passes run.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span and returns its id; end closes it.
func (t *tracer) begin(name, group string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.origin)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{id: len(t.spans) + 1, parent: parent, name: name, group: group, start: now, end: -1})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.origin)
	t.mu.Lock()
	t.spans[id-1].end = now
	t.mu.Unlock()
}

// add records an already finished span (e.g. a job whose wall time the
// experiment pool reports on completion).
func (t *tracer) add(name, group string, parent int, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{id: len(t.spans) + 1, parent: parent, name: name, group: group,
		start: start.Sub(t.origin), end: end.Sub(t.origin)})
}

// durations returns the durations of the closed spans with this name.
func (t *tracer) durations(name string) []time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []time.Duration
	for _, s := range t.spans {
		if s.name == name && s.end >= 0 {
			out = append(out, s.end-s.start)
		}
	}
	return out
}

// selfTimes sums, per span name, each span's duration minus the part of
// its interval that its children cover.
func (t *tracer) selfTimes() map[string]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int][]span{}
	for _, s := range t.spans {
		if s.parent != 0 && s.end >= 0 {
			children[s.parent] = append(children[s.parent], s)
		}
	}
	out := map[string]time.Duration{}
	for _, s := range t.spans {
		if s.end < 0 {
			continue
		}
		out[s.name] += s.end - s.start - covered(s, children[s.id])
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, kids []span) time.Duration {
	iv := make([][2]time.Duration, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.start, parent.start), min(k.end, parent.end)
		if hi > lo {
			iv = append(iv, [2]time.Duration{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi time.Duration
	open := false
	for _, x := range iv {
		switch {
		case !open:
			curLo, curHi, open = x[0], x[1], true
		case x[0] <= curHi:
			curHi = max(curHi, x[1])
		default:
			total += curHi - curLo
			curLo, curHi = x[0], x[1]
		}
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// write saves the spans as a Chrome trace_event file (load it in
// Perfetto or chrome://tracing) and returns its path.
func (t *tracer) write(dir, workload string, seed int64) (string, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	events := make([]event, 0, len(t.spans))
	for _, s := range t.spans {
		if s.end < 0 {
			continue
		}
		events = append(events, event{Name: s.name, Ph: "X", Ts: us(s.start), Dur: us(s.end - s.start),
			Pid: 1, Tid: laneOf(s.name),
			Args: map[string]any{"id": s.id, "parent": s.parent, "group": s.group}})
	}
	buf, err := json.Marshal(map[string]any{"traceEvents": events})
	if err != nil {
		return "", err
	}
	dir = filepath.Join(dir, "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", workload, seed))
	return path, os.WriteFile(path, buf, 0o644)
}

// laneOf gives each layer its own row in the trace viewer.
func laneOf(name string) int {
	for i, n := range layerNames {
		if n == name {
			return i + 1
		}
	}
	return 0
}

// layerNames are the span names this package records, outermost first.
var layerNames = []string{
	"exp.experiment", "exp.job", "client.run", "serve.handler",
	"cell", "build.partition", "build.lower", "sim.run", "exp.check",
}

// spanKey keys the spanRef a traced request carries from the client call
// through the transport to the server-side handler span.
type spanKey struct{}

// netTimes returns, for each span named parent that has a child named
// child, the parent's duration minus the child's: for a client call, the
// time spent outside the handler (connection, transport, encoding).
func (t *tracer) netTimes(parent, child string) []time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []time.Duration
	for _, s := range t.spans {
		if s.name != child || s.parent == 0 || s.end < 0 {
			continue
		}
		if p := t.spans[s.parent-1]; p.name == parent && p.end >= 0 {
			out = append(out, (p.end-p.start)-(s.end-s.start))
		}
	}
	return out
}
