package main

import (
	"bufio"
	"encoding/json"
	"os"
	"slices"
	"sync"
	"time"
)

// span is one timed call recorded by the traced run. Spans of one
// operation share Op; Parent is the span that caused this one (0 for an
// operation's root). Times are nanoseconds since the recorder started.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// recorder keeps spans in memory until the run ends. Nested spans opened
// from inside a call the benchmark wraps (a searcher called by the
// handler) attach to the span named by active.
type recorder struct {
	mu     sync.Mutex
	epoch  time.Time
	spans  []span
	op     int
	active int
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// nextOp starts a new operation; spans opened afterwards carry its id.
func (r *recorder) nextOp() {
	r.mu.Lock()
	r.op++
	r.active = 0
	r.mu.Unlock()
}

// open starts a span under parent and returns its id. A child belongs
// to its parent's operation; a root to the current one.
func (r *recorder) open(name string, parent int) int {
	now := time.Since(r.epoch).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	op := r.op
	if parent != 0 {
		op = r.spans[parent-1].Op
	}
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: now})
	return id
}

// close ends span id.
func (r *recorder) close(id int) {
	now := time.Since(r.epoch).Nanoseconds()
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

// rename renames span id, for a span whose kind is known only after
// the call it times.
func (r *recorder) rename(id int, name string) {
	r.mu.Lock()
	r.spans[id-1].Name = name
	r.mu.Unlock()
}

// within runs fn inside a span that nested spans attach to.
func (r *recorder) within(name string, parent int, fn func()) int {
	id := r.open(name, parent)
	r.mu.Lock()
	prev := r.active
	r.active = id
	r.mu.Unlock()
	fn()
	r.mu.Lock()
	r.active = prev
	r.mu.Unlock()
	r.close(id)
	return id
}

// nested opens a span under the currently active one; the returned
// function closes it.
func (r *recorder) nested(name string) func() {
	r.mu.Lock()
	parent := r.active
	r.mu.Unlock()
	id := r.open(name, parent)
	return func() { r.close(id) }
}

func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return slices.Clone(r.spans)
}

// selfTimes maps each span id to its self time: its duration minus the
// part of its interval covered by the union of its children.
func selfTimes(spans []span) map[int]int64 {
	children := map[int][][2]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make(map[int]int64, len(spans))
	for _, s := range spans {
		ivs := children[s.ID]
		slices.SortFunc(ivs, func(a, b [2]int64) int { return int(a[0] - b[0]) })
		covered := int64(0)
		curS, curE := int64(0), int64(-1)
		for _, iv := range ivs {
			lo, hi := max(iv[0], s.Start), min(iv[1], s.End)
			if hi <= lo {
				continue
			}
			if lo > curE {
				if curE > curS {
					covered += curE - curS
				}
				curS, curE = lo, hi
			} else if hi > curE {
				curE = hi
			}
		}
		if curE > curS {
			covered += curE - curS
		}
		out[s.ID] = s.dur() - covered
	}
	return out
}

// spanStats summarises the spans of each name: mean duration and mean
// self time in microseconds, and the count.
type spanStat struct {
	N      int
	MeanUS float64
	SelfUS float64
}

func summarize(spans []span) map[string]spanStat {
	self := selfTimes(spans)
	sum := map[string]*[3]float64{}
	for _, s := range spans {
		a := sum[s.Name]
		if a == nil {
			a = &[3]float64{}
			sum[s.Name] = a
		}
		a[0]++
		a[1] += float64(s.dur())
		a[2] += float64(self[s.ID])
	}
	out := map[string]spanStat{}
	for name, a := range sum {
		out[name] = spanStat{N: int(a[0]), MeanUS: a[1] / a[0] / 1e3, SelfUS: a[2] / a[0] / 1e3}
	}
	return out
}

// writeSpans writes spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
