package main

import (
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer's public function, recorded from
// the benchmark's own code. Start and End are wall-clock Unix nanoseconds
// so that spans recorded in different processes of one run share a
// timeline; Parent is the ID of the enclosing span in the same run (0 for
// a root).
type span struct {
	Run    string `json:"run"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	SelfNs int64  `json:"self_ns,omitempty"`
}

func (s span) seconds() float64 { return float64(s.End-s.Start) / 1e9 }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay one nil check per layer boundary.
type tracer struct {
	run   string
	mu    sync.Mutex
	spans []span
}

func newTracer(run string, on bool) *tracer {
	if !on {
		return nil
	}
	return &tracer{run: run}
}

// begin opens a span and returns its ID (0 when tracing is off).
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Now().UnixNano()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{Run: t.run, ID: id, Parent: parent, Name: name, Start: now})
	return id
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Now().UnixNano()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// do runs f inside a span.
func (t *tracer) do(name string, parent int, f func() error) error {
	id := t.begin(name, parent)
	err := f()
	t.end(id)
	return err
}

func (t *tracer) all() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// withSelfTimes fills SelfNs: a span's duration minus the part of its
// interval that its direct children cover (overlapping children count
// once).
func withSelfTimes(spans []span) []span {
	type key struct {
		run string
		id  int
	}
	children := map[key][][2]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			k := key{s.Run, s.Parent}
			children[k] = append(children[k], [2]int64{s.Start, s.End})
		}
	}
	out := append([]span(nil), spans...)
	for i := range out {
		s := &out[i]
		ivs := children[key{s.Run, s.ID}]
		sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
		var covered, curLo, curHi int64
		open := false
		for _, iv := range ivs {
			lo, hi := max(iv[0], s.Start), min(iv[1], s.End)
			if hi <= lo {
				continue
			}
			switch {
			case !open:
				curLo, curHi, open = lo, hi, true
			case lo > curHi:
				covered += curHi - curLo
				curLo, curHi = lo, hi
			case hi > curHi:
				curHi = hi
			}
		}
		if open {
			covered += curHi - curLo
		}
		s.SelfNs = s.End - s.Start - covered
	}
	return out
}

// spanSeconds returns the durations of every span with the given name.
func spanSeconds(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, s.seconds())
		}
	}
	return out
}
