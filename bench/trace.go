package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark from
// outside the program. Spans of one iteration, window or request share a
// Trace id; Parent is the id of the span that caused this one, -1 for a
// root.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Trace  int    `json:"trace"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the recorder was made
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// layerOf is the module a span belongs to: its name up to the first dot.
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}

// recorder keeps spans in memory until the workload ends. A nil recorder
// is the untraced run: every method is then a no-op, so workloads wrap
// their layer calls unconditionally.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span and returns its id (-1 untraced).
func (r *recorder) begin(trace, parent int, name string) int {
	if r == nil {
		return -1
	}
	return r.beginAt(trace, parent, name, time.Now())
}

// beginAt opens a span that started at an instant measured elsewhere (a
// window's ClosedAt).
func (r *recorder) beginAt(trace, parent int, name string, start time.Time) int {
	if r == nil {
		return -1
	}
	at := int64(start.Sub(r.t0))
	r.mu.Lock()
	id := len(r.spans)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Trace: trace, Name: name, Start: at, End: at})
	r.mu.Unlock()
	return id
}

func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	r.spans[id].End = now
	r.mu.Unlock()
}

// do runs fn inside a span.
func (r *recorder) do(trace, parent int, name string, fn func()) {
	id := r.begin(trace, parent, name)
	fn()
	r.end(id)
}

// add records a finished span whose bounds were measured elsewhere (a
// request's due time).
func (r *recorder) add(trace, parent int, name string, start, end time.Time) int {
	id := r.beginAt(trace, parent, name, start)
	if r != nil {
		r.mu.Lock()
		r.spans[id].End = int64(end.Sub(r.t0))
		r.mu.Unlock()
	}
	return id
}

// selfTimes returns, per span id, the span's duration minus the part of
// its interval that its child spans cover (children that overlap each
// other are counted once).
func selfTimes(spans []span) []int64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make([]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, edge), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = s.dur() - covered
	}
	return self
}

// durations returns the durations in ms of the spans called name.
func durations(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, ms(s.dur()))
		}
	}
	return out
}

// layerShares returns each layer's self time as a share of all self time
// outside the benchmark's own "probe" spans.
func layerShares(spans []span) map[string]float64 {
	self := selfTimes(spans)
	per := map[string]int64{}
	var total int64
	for _, s := range spans {
		l := layerOf(s.Name)
		if l == "probe" {
			continue
		}
		per[l] += self[s.ID]
		total += self[s.ID]
	}
	out := map[string]float64{}
	if total == 0 {
		return out
	}
	for l, v := range per {
		out[l] = float64(v) / float64(total)
	}
	return out
}

func (r *recorder) writeFile(path string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	blob, err := json.Marshal(r.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(blob, '\n'), 0o644)
}
