package pipeline

import (
	"fmt"
	"math"
	"sync/atomic"
	"testing"

	"netsample/internal/bins"
	"netsample/internal/core"
	"netsample/internal/dist"
	"netsample/internal/metrics"
	"netsample/internal/online"
	"netsample/internal/trace"
)

// topology is one operational configuration the snapshots must not
// depend on: shard count, ingest workers, unit size, and source form.
type topology struct {
	shards, workers, batch int
	source                 string // "raw", "decoded" or "per-packet"
	windowUS               int64  // 0: windowing off, one final window
}

func (tp topology) String() string {
	return fmt.Sprintf("shards=%d/workers=%d/batch=%d/%s/window=%d",
		tp.shards, tp.workers, tp.batch, tp.source, tp.windowUS)
}

// testWindowUS is the window length of the windowed topologies.
const testWindowUS = 20_000_000

// topologies lists shards {1,2,4} × ingest workers {1,2} × every
// source form at window length windowUS. The two-worker runs also use
// an odd unit size, so unit boundaries fall differently against window
// cuts and source windows.
func topologies(windowUS int64) []topology {
	var out []topology
	for _, shards := range []int{1, 2, 4} {
		for _, workers := range []int{1, 2} {
			batch := DefaultBatchSize
			if workers == 2 {
				batch = 13
			}
			for _, source := range []string{"raw", "decoded", "per-packet"} {
				out = append(out, topology{shards, workers, batch, source, windowUS})
			}
		}
	}
	return out
}

// runTopology runs tr through a pipeline in topology tp and returns its
// snapshots. build returns a fresh sampler, or nil for
// adaptive control. The sketch capacity keeps every shard's
// Space-Saving counts exact, so the merged TopK is topology-invariant.
func runTopology(t *testing.T, tr *trace.Trace, path string, tp topology, build func() online.Sampler) []*Snapshot {
	t.Helper()
	sizeEval, iatEval := evaluators(t, tr)
	cfg := Config{
		Shards:        tp.shards,
		IngestWorkers: tp.workers,
		BatchSize:     tp.batch,
		WindowUS:      tp.windowUS,
		TopKCapacity:  16384,
		SizeEval:      sizeEval,
		IatEval:       iatEval,
	}
	if s := build(); s != nil {
		cfg.NewSampler = func(int) (online.Sampler, error) { return s, nil }
	} else {
		cfg.Adaptive = &AdaptiveConfig{MinK: 4, MaxK: 256, StartK: 16, TargetPhi: 0.2}
	}
	p, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	var src Source
	switch tp.source {
	case "raw":
		mr, err := trace.OpenMap(path)
		if err != nil {
			t.Fatal(err)
		}
		defer mr.Close()
		src = mr
	case "decoded":
		src = tr.Replay()
	default:
		src = &perPacketOnly{r: tr.Replay()}
	}
	if err := p.Run(src); err != nil {
		t.Fatalf("Run: %v", err)
	}
	return p.Snapshots()
}

// windowOf assigns every packet its window index exactly as the reader
// cuts windows: the first packet opens window 0, and a packet at or
// past the window's end advances the cut. With windowing off (windowUS
// 0) the whole trace is window 0.
func windowOf(tr *trace.Trace, windowUS int64) []int {
	out := make([]int, tr.Len())
	w := 0
	var next int64
	for i, pkt := range tr.Packets {
		if i == 0 {
			next = pkt.Time + windowUS
		}
		for windowUS > 0 && pkt.Time >= next {
			w++
			next += windowUS
		}
		out[i] = w
	}
	return out
}

// assertMatchesSelection checks every window of snaps, cut at windowUS,
// against the batch evaluator fed the packets of idx that fall in that
// window: offered, processed and selected counts, the size histogram,
// and every float64 of both reports.
func assertMatchesSelection(t *testing.T, tr *trace.Trace, windowUS int64, snaps []*Snapshot, idx []int) {
	t.Helper()
	sizeEval, iatEval := evaluators(t, tr)
	win := windowOf(tr, windowUS)
	if want := win[len(win)-1] + 1; len(snaps) != want {
		t.Fatalf("%d windows, want %d", len(snaps), want)
	}
	offered := make([]uint64, len(snaps))
	for _, w := range win {
		offered[w]++
	}
	perWin := make([][]int, len(snaps))
	for _, i := range idx {
		perWin[win[i]] = append(perWin[win[i]], i)
	}
	scheme := bins.PacketSize()
	for w, snap := range snaps {
		sel := perWin[w]
		if snap.Offered != offered[w] || snap.Processed != offered[w] || snap.Dropped != 0 {
			t.Errorf("window %d: offered/processed/dropped %d/%d/%d, want %d/%d/0",
				w, snap.Offered, snap.Processed, snap.Dropped, offered[w], offered[w])
		}
		if snap.Selected != uint64(len(sel)) {
			t.Errorf("window %d: Selected = %d, batch selected %d", w, snap.Selected, len(sel))
		}
		wantSize := make([]float64, scheme.NumBins())
		for _, i := range sel {
			wantSize[scheme.Index(float64(tr.Packets[i].Size))]++
		}
		for b := range wantSize {
			if snap.SizeCounts[b] != wantSize[b] {
				t.Errorf("window %d: SizeCounts = %v, batch %v", w, snap.SizeCounts, wantSize)
				break
			}
		}
		for _, c := range []struct {
			name string
			ev   *core.Evaluator
			got  *metrics.Report
		}{{"size", sizeEval, snap.SizeReport}, {"iat", iatEval, snap.IatReport}} {
			want, err := c.ev.Score(sel)
			switch {
			case err != nil && c.got != nil:
				t.Errorf("window %d: %s report present, batch has no observations", w, c.name)
			case err == nil && c.got == nil:
				t.Errorf("window %d: %s report missing", w, c.name)
			case err == nil && reportBits(*c.got) != reportBits(want):
				t.Errorf("window %d: %s report bits = %v, batch %v", w, c.name, reportBits(*c.got), reportBits(want))
			}
		}
	}
}

// adaptiveSelection reconstructs the adaptive schedule from the
// snapshots' per-window k: a regime starts at the stream's first packet
// and at the first packet of every window whose k differs from its
// predecessor's, and selects every k-th packet from its start.
func adaptiveSelection(tr *trace.Trace, snaps []*Snapshot) []int {
	win := windowOf(tr, testWindowUS)
	var idx []int
	start := 0
	for i, w := range win {
		if i > 0 && w != win[i-1] && snaps[w].K != snaps[win[i-1]].K {
			start = i
		}
		if (i-start)%snaps[w].K == 0 {
			idx = append(idx, i)
		}
	}
	return idx
}

// TestSingleShardSnapshotMatchesBatch pins the sample-then-fan-out
// guarantee: the reader selects once, before the fan-out, so for every
// method and every shard count, ingest-worker count, unit size and
// source form, windowed and with windowing off (nsd's default), the
// snapshots are bit-identical — selected
// counts, histogram counts, and every float64 of both metric reports —
// to the batch core sampler + evaluator on the same trace and seed, and
// bit-identical to each other in every field (flows and TopK too).
// Adaptive control is checked against the systematic schedule its
// per-window k implies (windowed only: control needs windows);
// stratified-timer, which has no batch bit-equivalent, against its own
// one-shard run.
func TestSingleShardSnapshotMatchesBatch(t *testing.T) {
	const seed = 42
	tr := smallTrace(t, 777)
	period, err := core.PeriodForGranularity(tr, 50)
	if err != nil {
		t.Fatalf("period: %v", err)
	}
	// The online stratified sampler draws its target over k positions
	// even in the partial tail bucket, where the batch form draws over
	// the bucket's length (TestStratifiedTailBucket pins the rule); on a
	// bucket multiple the two agree draw for draw.
	trimmed := &trace.Trace{Start: tr.Start, ClockUS: tr.ClockUS}
	trimmed.Packets = tr.Packets[:tr.Len()-tr.Len()%50]

	must := func(s online.Sampler, err error) online.Sampler {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	cases := []struct {
		name  string
		tr    *trace.Trace
		batch core.Sampler // nil: no batch equivalent
		build func() online.Sampler
	}{
		{
			name:  "systematic",
			tr:    tr,
			batch: core.SystematicCount{K: 50},
			build: func() online.Sampler { return must(online.NewSystematic(50, 0)) },
		},
		{
			name:  "stratified",
			tr:    trimmed,
			batch: core.StratifiedCount{K: 50},
			build: func() online.Sampler { return must(online.NewStratified(50, dist.NewRNG(seed))) },
		},
		{
			name:  "systematic-timer",
			tr:    tr,
			batch: core.SystematicTimer{PeriodUS: period},
			build: func() online.Sampler { return must(online.NewSystematicTimer(period, 0)) },
		},
		{
			name:  "adaptive",
			tr:    tr,
			build: func() online.Sampler { return nil },
		},
		{
			name:  "stratified-timer",
			tr:    tr,
			build: func() online.Sampler { return must(online.NewStratifiedTimer(period, dist.NewRNG(seed))) },
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := writeTraceFile(t, tc.tr)
			var idx []int
			if tc.batch != nil {
				if idx, err = tc.batch.Select(tc.tr, dist.NewRNG(seed)); err != nil {
					t.Fatalf("batch select: %v", err)
				}
			}
			for _, windowUS := range []int64{testWindowUS, 0} {
				if windowUS == 0 && tc.name == "adaptive" {
					continue // adaptive control needs windows
				}
				t.Run(fmt.Sprintf("window=%d", windowUS), func(t *testing.T) {
					want := idx
					tops := topologies(windowUS)
					var ref []*Snapshot
					for _, tp := range tops {
						snaps := runTopology(t, tc.tr, path, tp, tc.build)
						if ref == nil {
							ref = snaps
							if tc.name == "adaptive" {
								want = adaptiveSelection(tc.tr, snaps)
							}
							if want != nil {
								assertMatchesSelection(t, tc.tr, windowUS, snaps, want)
							}
							continue
						}
						if len(snaps) != len(ref) {
							t.Fatalf("%v: %d windows, want %d", tp, len(snaps), len(ref))
						}
						for i := range ref {
							if snaps[i].K != ref[i].K {
								t.Errorf("%v: window %d ran at k=%d, want %d", tp, i, snaps[i].K, ref[i].K)
							}
							assertSnapshotsEqual(t, i, ref[i], snaps[i])
						}
						if t.Failed() {
							t.Fatalf("%v diverged from %v", tp, tops[0])
						}
					}
				})
			}
		})
	}
}

// TestStratifiedTailBucket pins the one place streaming stratified
// sampling departs from the batch form: the partial bucket at the end
// of the stream. Batch StratifiedCount draws the tail's position over
// the bucket's actual length; a streaming sampler cannot know the
// stream ends, so it draws over k like every other bucket — the same
// draw, from the same RNG position — and selects the tail's drawn
// packet only if the stream reaches it. Every full bucket agrees with
// the batch selection exactly, for any shard count.
func TestStratifiedTailBucket(t *testing.T) {
	const (
		seed = 42
		k    = 50
	)
	tr := smallTrace(t, 777)
	full := tr.Len() - tr.Len()%k
	if full == tr.Len() {
		t.Fatal("trace length is a bucket multiple; the tail rule is untested")
	}
	trimmed := &trace.Trace{Start: tr.Start, ClockUS: tr.ClockUS, Packets: tr.Packets[:full]}
	rng := dist.NewRNG(seed)
	idx, err := core.StratifiedCount{K: k}.Select(trimmed, rng)
	if err != nil {
		t.Fatal(err)
	}
	tailSelected := false
	if j := full + rng.IntN(k); j < tr.Len() {
		idx = append(idx, j)
		tailSelected = true
	}
	path := writeTraceFile(t, tr)
	for _, tp := range []topology{
		{1, 1, DefaultBatchSize, "decoded", testWindowUS},
		{4, 2, 13, "raw", testWindowUS},
		{2, 1, DefaultBatchSize, "raw", 0},
	} {
		snaps := runTopology(t, tr, path, tp, func() online.Sampler {
			s, err := online.NewStratified(k, dist.NewRNG(seed))
			if err != nil {
				t.Fatal(err)
			}
			return s
		})
		assertMatchesSelection(t, tr, tp.windowUS, snaps, idx)
	}
	t.Logf("tail bucket of %d packets: drawn packet selected = %v", tr.Len()-full, tailSelected)
}

// TestMaxTimestampUnwindowed pins that a record stamped math.MaxInt64
// cannot wedge the reader with windowing off: there is no window cut
// to reach, so Run returns with exactly one (final) window holding
// every record — on the raw path under a timer sampler (the timestamp
// scan loop) and a count-driven one, and on the decoded path. A second
// snapshot panics on the collector, so a regression fails fast instead
// of growing memory.
func TestMaxTimestampUnwindowed(t *testing.T) {
	tr := smallTrace(t, 5)
	hostile := &trace.Trace{Start: tr.Start, ClockUS: tr.ClockUS}
	hostile.Packets = append(hostile.Packets, tr.Packets[:100]...)
	hostile.Packets[99].Time = math.MaxInt64
	path := writeTraceFile(t, hostile)
	methods := map[string]func() (online.Sampler, error){
		"systematic":       func() (online.Sampler, error) { return online.NewSystematic(10, 0) },
		"systematic-timer": func() (online.Sampler, error) { return online.NewSystematicTimer(1_000, 0) },
	}
	for name, build := range methods {
		for _, source := range []string{"raw", "decoded"} {
			var snaps atomic.Int64
			p, err := New(Config{
				Shards:     2,
				BatchSize:  7,
				NewSampler: func(int) (online.Sampler, error) { return build() },
				OnSnapshot: func(*Snapshot) {
					if snaps.Add(1) > 1 {
						panic("pipeline: second snapshot with windowing off")
					}
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			var src Source = hostile.Replay()
			if source == "raw" {
				mr, err := trace.OpenMap(path)
				if err != nil {
					t.Fatal(err)
				}
				defer mr.Close()
				src = mr
			}
			if err := p.Run(src); err != nil {
				t.Fatalf("%s/%s: Run: %v", name, source, err)
			}
			got := p.Snapshots()
			if len(got) != 1 || !got[0].Final || got[0].Offered != 100 {
				t.Errorf("%s/%s: %d snapshots, want one final window of 100 records", name, source, len(got))
			}
		}
	}
}
