package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// recorder keeps the spans of a traced run in memory; dump writes them
// once when the run ends. Spans are recorded only by the benchmark's own
// code, around its calls into each layer. A nil recorder records nothing,
// so untraced runs pay no tracing cost.
type recorder struct {
	mu     sync.Mutex
	t0     time.Time
	nextID uint64
	spans  []span
}

// span is one recorded interval. Spans of one sweep (or one layer
// measurement) share Trace; Parent is the span that caused it (0 = root).
type span struct {
	Trace   uint64 `json:"trace"`
	ID      uint64 `json:"id"`
	Parent  uint64 `json:"parent"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// openSpan is a span that has begun and not yet ended.
type openSpan struct {
	r *recorder
	s span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// newTrace returns a fresh trace identifier.
func (r *recorder) newTrace() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.nextID++
	return r.nextID
}

// begin opens a span now under parent (nil for a root span).
func (r *recorder) begin(trace uint64, parent *openSpan, name string) *openSpan {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	r.nextID++
	id := r.nextID
	r.mu.Unlock()
	o := &openSpan{r: r, s: span{Trace: trace, ID: id, Name: name, StartNS: int64(time.Since(r.t0))}}
	if parent != nil {
		o.s.Parent = parent.s.ID
	}
	return o
}

// at moves the span's start to t.
func (o *openSpan) at(t time.Time) *openSpan {
	if o != nil {
		o.s.StartNS = int64(t.Sub(o.r.t0))
	}
	return o
}

// end closes the span at t and keeps it.
func (r *recorder) end(o *openSpan, t time.Time) {
	if r == nil || o == nil {
		return
	}
	o.s.EndNS = int64(t.Sub(r.t0))
	r.mu.Lock()
	r.spans = append(r.spans, o.s)
	r.mu.Unlock()
}

// timed records fn as a root span of its own trace.
func (r *recorder) timed(name string, fn func() error) error {
	o := r.begin(r.newTrace(), nil, name)
	err := fn()
	r.end(o, time.Now())
	return err
}

// dump writes every span as one JSON line to path.
func (r *recorder) dump(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, s := range r.spans {
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
