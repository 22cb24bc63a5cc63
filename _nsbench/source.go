package main

import (
	"encoding/binary"
	"errors"
	"io"
	"runtime"
	"sync/atomic"
	"time"

	"netsample/internal/pipeline"
	"netsample/internal/trace"
)

// tracker sits between a source and the pipeline's reader. It finds the
// window cuts — the batch holding the first record past each window's
// end, exactly where the reader emits its barrier — and stamps each with
// the time the batch was handed out (closed loop) or was due (open
// loop). With pacing on it also holds every batch until its due time.
// In a traced pass it records a span per source call and per gap
// between calls.
type tracker struct {
	windowUS int64
	nextEnd  int64
	started  bool
	// cuts[seq-1] is the cut time of window seq. Written by the reader
	// goroutine before the batch goes out, read by the snapshot
	// collector after the window's barrier, so atomics order the two.
	cuts []atomic.Int64
	ncut int

	// Pacing (open loop): a record at virtual time t is due at
	// startNS + (t - t0US) / speedup.
	speedup  int64
	startNS  int64
	t0US     int64
	lagMaxNS int64

	spans   *spanBuf
	calls   uint64
	lastRet int64
	srcNS   int64
	gapNS   int64
	pkts    int64
}

func newTracker(windowUS int64, maxWindows int, speedup int64, spans *spanBuf) *tracker {
	return &tracker{windowUS: windowUS, cuts: make([]atomic.Int64, maxWindows),
		speedup: speedup, spans: spans}
}

// enter marks the start of a source call.
func (t *tracker) enter() int64 {
	if !t.spans.on {
		return 0
	}
	s := now()
	if t.calls > 0 {
		t.gapNS += s - t.lastRet
		t.spans.add("reader", t.calls, t.lastRet, s)
	}
	return s
}

// leave processes a batch whose first and last record timestamps are
// firstUS and lastUS (n records) and the call's error, after the inner
// source returned at time callStart.
func (t *tracker) leave(callStart int64, n int, firstUS, lastUS int64, err error) error {
	var ret int64
	if t.spans.on {
		ret = now()
		t.srcNS += ret - callStart
		t.spans.add("source", t.calls, callStart, ret)
		t.calls++
	}
	if n > 0 {
		if !t.started {
			t.started = true
			t.nextEnd = firstUS + t.windowUS
			t.t0US = firstUS
			if t.speedup > 0 {
				t.startNS = now()
			}
		}
		t.pkts += int64(n)
		stamp := int64(0)
		if t.speedup > 0 {
			due := t.startNS + (lastUS-t.t0US)*1000/t.speedup
			stamp = due
			t.waitUntil(due)
		}
		for lastUS >= t.nextEnd {
			if stamp == 0 {
				stamp = now()
			}
			t.cut(stamp)
			t.nextEnd += t.windowUS
		}
	}
	if err != nil && errors.Is(err, io.EOF) {
		t.cut(now())
	}
	if t.spans.on {
		t.lastRet = now()
		if t.speedup > 0 && t.lastRet-ret > 0 {
			t.spans.add("pace", t.calls, ret, t.lastRet)
		}
	}
	return err
}

// cut stamps the next window's cut time.
func (t *tracker) cut(ns int64) {
	if t.ncut < len(t.cuts) {
		t.cuts[t.ncut].Store(ns)
	}
	t.ncut++
}

// cutOf returns window seq's cut time and whether it was recorded.
func (t *tracker) cutOf(seq uint64) (int64, bool) {
	if seq == 0 || seq > uint64(len(t.cuts)) {
		return 0, false
	}
	ns := t.cuts[seq-1].Load()
	return ns, ns != 0
}

// waitUntil holds the caller until due: a sleep for all but the last
// stretch, then a yielding spin, so batches go out within microseconds
// of their due time instead of a timer slack late. It records how late
// the generator ran.
func (t *tracker) waitUntil(due int64) {
	const spin = 300 * time.Microsecond
	if d := time.Duration(due - now()); d > spin {
		time.Sleep(d - spin)
	}
	for {
		n := now()
		if n >= due {
			if lag := n - due; lag > t.lagMaxNS {
				t.lagMaxNS = lag
			}
			return
		}
		// Yield so the pipeline's goroutines keep both CPUs.
		runtime.Gosched()
	}
}

// rawSource wraps the zero-copy NSTR reader (the nsd -in path).
type rawSource struct {
	mr *trace.MapReader
	t  *tracker
}

var _ pipeline.RawBatchSource = (*rawSource)(nil)

func (s *rawSource) NextRawBatch(max int) ([]byte, int, error) {
	start := s.t.enter()
	raw, n, err := s.mr.NextRawBatch(max)
	var first, last int64
	if n > 0 {
		first = int64(binary.LittleEndian.Uint64(raw))
		last = int64(binary.LittleEndian.Uint64(raw[(n-1)*trace.RecordLen:]))
	}
	return raw, n, s.t.leave(start, n, first, last, err)
}

// Next satisfies pipeline.Source; the reader always prefers the raw
// path for this source, so per-packet reads are a wiring error.
func (s *rawSource) Next() (trace.Packet, error) {
	return trace.Packet{}, errors.New("nsbench: raw source read per packet")
}

// batchSource wraps a decoded BatchSource (the nsd -gen path).
type batchSource struct {
	bs pipeline.BatchSource
	t  *tracker
}

func (s *batchSource) NextBatch(dst []trace.Packet) (int, error) {
	start := s.t.enter()
	n, err := s.bs.NextBatch(dst)
	var first, last int64
	if n > 0 {
		first, last = dst[0].Time, dst[n-1].Time
	}
	return n, s.t.leave(start, n, first, last, err)
}

// Next satisfies pipeline.Source; the reader always prefers NextBatch.
func (s *batchSource) Next() (trace.Packet, error) {
	return trace.Packet{}, errors.New("nsbench: batch source read per packet")
}
