package bench

import (
	"testing"
	"time"
)

func TestSummarize(t *testing.T) {
	ms := func(v int) time.Duration { return time.Duration(v) * time.Millisecond }
	s := Summarize([]time.Duration{ms(3), ms(1), ms(2), ms(4), ms(100)})
	if s.MedianNS != ms(3).Nanoseconds() {
		t.Errorf("median: got %d", s.MedianNS)
	}
	if s.MinNS != ms(1).Nanoseconds() || s.MaxNS != ms(100).Nanoseconds() {
		t.Errorf("min/max: got %d/%d", s.MinNS, s.MaxNS)
	}
	if s.P95NS != ms(100).Nanoseconds() {
		t.Errorf("p95: got %d", s.P95NS)
	}
	if s.MeanNS != ms(22).Nanoseconds() {
		t.Errorf("mean: got %d", s.MeanNS)
	}
	// Even-length median averages the central pair.
	s = Summarize([]time.Duration{ms(1), ms(2), ms(3), ms(4)})
	if want := 2500 * time.Microsecond; s.MedianNS != want.Nanoseconds() {
		t.Errorf("even median: got %d want %d", s.MedianNS, want.Nanoseconds())
	}
	if s := Summarize(nil); s != (Stats{}) {
		t.Errorf("empty input: got %+v", s)
	}
}
