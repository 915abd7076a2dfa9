package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call (nothing inside the program is instrumented). Times are
// nanoseconds since the tracer was created. Parent is the id of the span
// that caused this one, 0 for a root; spans of one proof, replay pass or
// set-up share a TraceID. Count is how many operations the interval
// covers, so a loop of a million field multiplications is one span.
type span struct {
	ID      int    `json:"id"`
	Name    string `json:"name"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
	TraceID string `json:"trace_id"`
	Count   int    `json:"count"`
}

// tracer keeps spans in memory until the run ends. It is used from one
// goroutine at a time.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its id for end and for children.
func (t *tracer) begin(name, traceID string, parent int) int {
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Name: name, Parent: parent, TraceID: traceID, Count: 1,
		Start: int64(time.Since(t.epoch)),
	})
	return len(t.spans)
}

func (t *tracer) end(id int) { t.spans[id-1].End = int64(time.Since(t.epoch)) }

// call records fn as one span covering count operations.
func (t *tracer) call(name, traceID string, parent, count int, fn func()) {
	id := t.begin(name, traceID, parent)
	fn()
	t.end(id)
	t.spans[id-1].Count = count
}

// add records an interval that was timed elsewhere (the protocol steps a
// traced Engine reports as durations).
func (t *tracer) add(name, traceID string, parent int, start time.Time, d time.Duration) int {
	id := t.begin(name, traceID, parent)
	t.spans[id-1].Start = int64(start.Sub(t.epoch))
	t.spans[id-1].End = t.spans[id-1].Start + int64(d)
	return id
}

// perOp returns, for every span of the name, its duration divided by its
// operation count, in nanoseconds.
func (t *tracer) perOp(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/float64(s.Count))
		}
	}
	return out
}

type traceFile struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Spans    []span `json:"spans"`
}

func (t *tracer) write(path, workload string, seed int64) error {
	data, err := json.Marshal(traceFile{Workload: workload, Seed: seed, Spans: t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
