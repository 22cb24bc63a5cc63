package pipeline

import (
	"math"

	"netsample/internal/online"
)

// noNext marks a selector without a count-driven schedule.
const noNext = math.MaxUint64

// maxSpanPerSelection caps the raw reader's read-ahead: a source window
// holds at most BatchSize × this many records, however sparse the
// selection.
const maxSpanPerSelection = 4096

// selector is the pipeline's one sampler, run by the reader over the
// whole stream before the fan-out (DESIGN.md §10). A count-driven
// sampler (online.Counted) is held as next, the stream index of its
// next selection, so the reader jumps from one selected index to the
// next without offering the packets between; it makes exactly the
// decisions per-packet Offer calls would, in the same order, so the
// selected set is the batch sampler's. Any other sampler is offered
// every packet. Reader goroutine only.
type selector struct {
	s     online.Sampler
	count online.Counted // nil: offer every packet
	next  uint64         // noNext unless count-driven
	// due is the first timestamp that needs an Offer: math.MinInt64
	// (every packet) unless count-driven, then math.MaxInt64 (none).
	due int64
}

func newSelector(s online.Sampler) selector {
	sl := selector{s: s, next: noNext, due: math.MinInt64}
	if c, ok := s.(online.Counted); ok {
		sl.count = c
		sl.due = math.MaxInt64
		sl.next = uint64(c.Skip())
	}
	return sl
}

// take consumes the count-driven selection at stream index i and
// schedules the next.
//
//nslint:hotpath
func (sl *selector) take(i uint64) {
	sl.next = i + 1 + uint64(sl.count.Skip())
}

// rearm restarts the count-driven schedule at stream index i, after
// the sampler itself was re-anchored (adaptive control).
func (sl *selector) rearm(i uint64) {
	sl.next = i + uint64(sl.count.Skip())
}

// nextSpan sizes the raw reader's next source request: enough records
// for BatchSize selections at the rate the last window selected, within
// [batch, batch × maxSpanPerSelection]. A window that selected nothing
// doubles the span.
func nextSpan(span, batch, records, selected int) int {
	if selected == 0 {
		span *= 2
	} else {
		span = batch * (records / selected)
	}
	return min(max(span, batch), batch*maxSpanPerSelection)
}
