package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// Wall-clock spans around every call the benchmark makes into a layer's
// public functions. The spans are recorded from outside the library: a
// span's self time is its duration minus the part its child spans cover,
// so a leaf span (one library call) is that call's whole cost as seen by
// its caller, and the harness's own op span keeps only the benchmark's
// bookkeeping between calls.
//
// Each goroutine that records owns a track, so recording takes no lock.
// Durations and self times aggregate per span name for the whole run;
// the first trackKeep spans of each track are also kept verbatim and
// written out when the run ends.

const (
	maxSpanNames = 256
	trackKeep    = 1 << 14
)

type spanName struct {
	name, layer string
}

type span struct {
	name       int32
	parent     int32 // index in the same track's spans, -1 for a root
	op         int64
	start, end int64 // ns since the tracer's epoch
}

type frame struct {
	name, idx   int32
	start, kids int64
}

type tracer struct {
	epoch  time.Time
	names  []spanName
	tracks []*track
}

// newTracer makes a tracer whose epoch is now.
func newTracer() *tracer {
	return &tracer{epoch: time.Now()}
}

// name registers a span name and its layer; registration happens during
// set-up, before any track records.
func (tr *tracer) name(name, layer string) int32 {
	for i, n := range tr.names {
		if n.name == name {
			return int32(i)
		}
	}
	if len(tr.names) == maxSpanNames {
		panic("perfbench: too many span names")
	}
	tr.names = append(tr.names, spanName{name, layer})
	return int32(len(tr.names) - 1)
}

// track creates a recording track for one goroutine. Its span buffer is
// allocated when it first records, so the tracks of closed set-ups cost
// nothing.
func (tr *tracer) track() *track {
	t := &track{tr: tr, stack: make([]frame, 0, 16)}
	tr.tracks = append(tr.tracks, t)
	return t
}

// track is one goroutine's span recorder. It records only while on; a
// nil track never records.
type track struct {
	tr      *tracer
	on      bool
	op      int64
	stack   []frame
	spans   []span
	dropped int64
	count   [maxSpanNames]int64
	dur     [maxSpanNames]int64
	self    [maxSpanNames]int64
}

// begin opens a span and returns its start (0 when not recording).
func (t *track) begin(name int32) int64 {
	if t == nil || !t.on {
		return 0
	}
	if t.spans == nil {
		t.spans = make([]span, 0, trackKeep)
	}
	now := int64(time.Since(t.tr.epoch))
	idx := int32(-1)
	if len(t.spans) < cap(t.spans) {
		parent := int32(-1)
		if n := len(t.stack); n > 0 {
			parent = t.stack[n-1].idx
		}
		t.spans = append(t.spans, span{name: name, parent: parent, op: t.op, start: now})
		idx = int32(len(t.spans) - 1)
	} else {
		t.dropped++
	}
	t.stack = append(t.stack, frame{name: name, idx: idx, start: now})
	return now
}

// end closes the innermost open span and returns its end (0 when not
// recording).
func (t *track) end() int64 {
	if t == nil || !t.on {
		return 0
	}
	now := int64(time.Since(t.tr.epoch))
	n := len(t.stack) - 1
	f := t.stack[n]
	t.stack = t.stack[:n]
	d := now - f.start
	t.count[f.name]++
	t.dur[f.name] += d
	t.self[f.name] += d - f.kids
	if f.idx >= 0 {
		t.spans[f.idx].end = now
	}
	if n > 0 {
		t.stack[n-1].kids += d
	}
	return now
}

// layerSelf sums the self time (ns) of every span of every layer.
func (tr *tracer) layerSelf() map[string]int64 {
	out := make(map[string]int64)
	for _, t := range tr.tracks {
		for i, n := range tr.names {
			out[n.layer] += t.self[i]
		}
	}
	return out
}

// spanCount reports spans recorded and spans not retained.
func (tr *tracer) spanCount() (recorded, dropped int64) {
	for _, t := range tr.tracks {
		for i := range tr.names {
			recorded += t.count[i]
		}
		dropped += t.dropped
	}
	return recorded, dropped
}

// write stores the retained spans as JSON lines.
func (tr *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	type rec struct {
		Track  int    `json:"track"`
		Index  int    `json:"index"`
		Name   string `json:"name"`
		Layer  string `json:"layer"`
		Parent int32  `json:"parent"`
		Op     int64  `json:"op"`
		Start  int64  `json:"start_ns"`
		End    int64  `json:"end_ns"`
	}
	for ti, t := range tr.tracks {
		for i, s := range t.spans {
			n := tr.names[s.name]
			if err := enc.Encode(rec{ti, i, n.name, n.layer, s.parent, s.op, s.start, s.end}); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
