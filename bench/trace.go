package main

import (
	"bufio"
	"fmt"
	"os"
	"slices"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around the
// call (nothing inside the program is instrumented). Times are nanoseconds
// since the tracer's epoch; parent is the index of the enclosing span, -1
// for a root; op groups the spans of one operation.
type span struct {
	name       string
	start, end int64
	parent     int32
	op         uint32
}

// tracer holds spans in a preallocated in-memory buffer until the run ends.
// A nil *tracer records nothing, so workloads call begin/end
// unconditionally and the untraced run pays one nil check per call.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer(capacity int) *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, capacity)}
}

// begin opens a span and returns its index for end (and for children's
// parent argument).
func (t *tracer) begin(name string, parent int32, op uint32) int32 {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{name: name, parent: parent, op: op, start: int64(time.Since(t.epoch))})
	return int32(len(t.spans) - 1)
}

func (t *tracer) end(id int32) {
	if t == nil {
		return
	}
	t.spans[id].end = int64(time.Since(t.epoch))
}

// spanStats aggregates the spans of one name.
type spanStats struct {
	count     int
	total     int64   // Σ duration, ns
	self      int64   // Σ (duration − children's durations), ns
	durations []int64 // every duration, for medians
}

func (s *spanStats) meanNS() float64 {
	if s == nil || s.count == 0 {
		return 0
	}
	return float64(s.total) / float64(s.count)
}

func (s *spanStats) medianNS() float64 {
	if s == nil || s.count == 0 {
		return 0
	}
	d := slices.Clone(s.durations)
	slices.Sort(d)
	v, _ := percentileSorted(d, 50)
	return float64(v)
}

// selfTimes returns each span's self time: its duration minus the part its
// direct children cover (children are nested inside their parent, and
// siblings do not overlap, because one goroutine records them all).
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] += s.end - s.start
		if s.parent >= 0 {
			self[s.parent] -= s.end - s.start
		}
	}
	return self
}

// summarize groups spans by name.
func summarize(spans []span) map[string]*spanStats {
	self := selfTimes(spans)
	out := map[string]*spanStats{}
	for i, s := range spans {
		st := out[s.name]
		if st == nil {
			st = &spanStats{}
			out[s.name] = st
		}
		d := s.end - s.start
		st.count++
		st.total += d
		st.self += self[i]
		st.durations = append(st.durations, d)
	}
	return out
}

// writeJSONLines writes one JSON object per span.
func (t *tracer) writeJSONLines(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	for i, s := range t.spans {
		fmt.Fprintf(w, "{\"id\":%d,\"name\":%q,\"parent\":%d,\"op\":%d,\"start_ns\":%d,\"end_ns\":%d}\n",
			i, s.name, s.parent, s.op, s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
