package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// A tracer records spans around the benchmark's calls into each layer's
// public functions. Spans stay in memory and are written out when the run
// ends. Every goroutine records into a lane of its own, so recording takes
// no lock; a nil lane records nothing, which is how an untraced run is
// guaranteed to pay nothing for tracing.
type tracer struct {
	t0    time.Time
	on    atomic.Bool // toggled between rounds to measure the overhead
	mu    sync.Mutex  // guards lanes
	lanes []*lane
}

type lane struct {
	tr    *tracer
	name  string
	spans []span
	open  []int32 // indices of the spans begun and not yet ended
}

// span is one timed call: parent is the index, in the same lane, of the span
// that was open when this one began (-1 for none); id is the round or request
// the call belongs to, shared by all spans of that round or request.
type span struct {
	name       string
	start, end int64 // ns since tracer.t0
	parent     int32
	id         int64
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// lane returns a new lane; on a nil tracer it returns nil.
func (t *tracer) lane(name string) *lane {
	if t == nil {
		return nil
	}
	l := &lane{tr: t, name: name}
	t.mu.Lock()
	t.lanes = append(t.lanes, l)
	t.mu.Unlock()
	return l
}

// begin opens a span and returns its handle for end.
func (l *lane) begin(name string, id int64) int32 {
	if l == nil || !l.tr.on.Load() {
		return -1
	}
	parent := int32(-1)
	if n := len(l.open); n > 0 {
		parent = l.open[n-1]
	}
	h := int32(len(l.spans))
	l.spans = append(l.spans, span{name: name, parent: parent, id: id, start: int64(time.Since(l.tr.t0))})
	l.open = append(l.open, h)
	return h
}

func (l *lane) end(h int32) {
	if h < 0 {
		return
	}
	l.spans[h].end = int64(time.Since(l.tr.t0))
	l.open = l.open[:len(l.open)-1]
}

// layerTime is the aggregate of all spans with one name.
type layerTime struct {
	name        string
	count       int
	total, self time.Duration
}

// layerTimes sums, per span name, the total time and the self time: a span's
// duration minus the part its direct children cover.
func (t *tracer) layerTimes() []layerTime {
	byName := map[string]*layerTime{}
	for _, l := range t.lanes {
		child := make([]int64, len(l.spans))
		for _, s := range l.spans {
			if s.parent >= 0 {
				child[s.parent] += s.end - s.start
			}
		}
		for i, s := range l.spans {
			lt := byName[s.name]
			if lt == nil {
				lt = &layerTime{name: s.name}
				byName[s.name] = lt
			}
			lt.count++
			lt.total += time.Duration(s.end - s.start)
			lt.self += time.Duration(s.end - s.start - child[i])
		}
	}
	out := make([]layerTime, 0, len(byName))
	for _, lt := range byName {
		out = append(out, *lt)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].self > out[j].self })
	return out
}

func (t *tracer) spanCount() int {
	n := 0
	for _, l := range t.lanes {
		n += len(l.spans)
	}
	return n
}

// writeFile writes the spans as JSON: one object per lane, one
// [name, start_ns, end_ns, parent, id] row per span.
func (t *tracer) writeFile(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<16)
	err = t.write(w)
	if ferr := w.Flush(); err == nil {
		err = ferr
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

func (t *tracer) write(w io.Writer) error {
	fmt.Fprint(w, `{"columns":["name","start_ns","end_ns","parent","id"],"lanes":[`)
	for li, l := range t.lanes {
		if li > 0 {
			fmt.Fprint(w, ",")
		}
		name, err := json.Marshal(l.name)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "\n{\"lane\":%s,\"spans\":[", name)
		for i, s := range l.spans {
			if i > 0 {
				fmt.Fprint(w, ",")
			}
			fmt.Fprintf(w, "\n[%q,%d,%d,%d,%d]", s.name, s.start, s.end, s.parent, s.id)
		}
		fmt.Fprint(w, "]}")
	}
	_, err := fmt.Fprintln(w, "]}")
	return err
}
