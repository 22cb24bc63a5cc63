package main

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"netsample/internal/arts"
	"netsample/internal/collect"
	"netsample/internal/pipeline"
	"netsample/internal/store"
	"netsample/internal/trace"
)

// pollThink is the poller's pause between polls: frequent enough for
// about a thousand samples a run, sparse enough that the poller's own
// CPU use barely perturbs a pipeline that saturates both CPUs.
const pollThink = 10 * time.Millisecond

// passStats is everything one pass measured.
type passStats struct {
	traced  bool
	pkts    int
	runNS   int64 // Run start to Run return
	setupNS int64 // source open, store.Open, pipeline.New, agent start

	durableMS []float64 // window cut → AppendSnapshot return
	pollMS    []float64 // successful poll round trips
	queryMS   []float64
	polls     int
	pollErrs  int
	pollStale int

	windows    int
	offered    uint64
	selected   uint64
	dropped    uint64
	activePeak int
	kChanges   int
	lagMaxNS   int64 // open loop: how late the generator ran at worst

	storeBytes int64
	segments   int
	replayNS   float64 // store replay, per record
	verifyMS   float64

	ops, failed int
	digest      [32]byte // all live payloads, in window order

	// Traced passes only.
	cutSnapMS []float64 // window cut → OnSnapshot entry
	encodeUS  []float64 // Snapshot.Wire + collect.EncodeSnapshot
	appendUS  []float64 // store.Writer.Append (group fsync, seal)
	scoreUS   float64   // ScoreCounts on both targets, per scored window
	srcNS     int64     // inside the source calls
	gapNS     int64     // between source calls
	self      map[string]int64
	spans     []span
}

func (ps *passStats) pktsPerS() float64 { return float64(ps.pkts) / (float64(ps.runNS) / 1e9) }

// pollRec is one poll's outcome.
type pollRec struct {
	rttNS int64
	snap  *collect.Snapshot
	err   error
}

// bench holds one run's workload, input and accumulated failure log.
type bench struct {
	w      *workload
	in     *input
	dir    string
	shards int
	// seen, when set, receives each pass's live payloads after the
	// checks (the determinism self-test compares them across runs).
	seen     func(payloads [][]byte)
	digest   [32]byte // the first pass's payload digest
	haveDig  bool
	failures []string
}

func (b *bench) fail(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	b.failures = append(b.failures, msg)
	fmt.Fprintln(os.Stderr, "nsbench: FAIL", msg)
}

// runPass wires source → pipeline → OnSnapshot → Wire → store, with an
// agent exporting the pipeline that a collector polls over loopback,
// exactly as cmd/nsd wires them; runs the input once; then checks the
// outputs and queries the store.
func (b *bench) runPass(idx int, traced bool) (*passStats, error) {
	ps := &passStats{traced: traced}
	passStart := now()
	mainSpans := &spanBuf{on: traced, pass: idx}
	readerSpans := &spanBuf{on: traced, pass: idx}
	snapSpans := &spanBuf{on: traced, pass: idx}
	pollSpans := &spanBuf{on: traced, pass: idx}

	var speedup int64
	if b.w.paced {
		speedup = pacedSpeedup
	}
	tk := newTracker(b.w.window.Microseconds(), b.in.maxWindows(b.w), speedup, readerSpans)
	var (
		src      pipeline.Source
		closeSrc = func() error { return nil }
	)
	if b.in.path != "" {
		mr, err := trace.OpenMap(b.in.path)
		if err != nil {
			return nil, err
		}
		src, closeSrc = &rawSource{mr: mr, t: tk}, mr.Close
	} else {
		src = &batchSource{bs: b.in.replay.Replay(), t: tk}
	}
	dir := filepath.Join(b.dir, fmt.Sprintf("store-%03d", idx))
	defer os.RemoveAll(dir)
	sw, err := store.Open(dir, store.Options{
		SyncEvery:      store.DefaultSyncEvery,
		SegmentRecords: store.DefaultSegmentRecords,
	})
	if err != nil {
		closeSrc()
		return nil, err
	}

	// Written only by the pipeline's collector goroutine inside
	// OnSnapshot; read after Run returns.
	var (
		wires       []*collect.Snapshot
		appendErrs  int
		missingCuts int
		firstSnap   = make(chan struct{})
	)
	cfg := b.w.config(b.in)
	cfg.Shards = b.shards
	cfg.OnSnapshot = func(s *pipeline.Snapshot) {
		var entry, encoded int64
		var w *collect.Snapshot
		var err error
		if traced {
			// AppendSnapshot is EncodeSnapshot + Append; the traced pass
			// splits the two so encode and append get their own spans.
			entry = now()
			w = s.Wire(node)
			var payload []byte
			payload, err = collect.EncodeSnapshot(w)
			encoded = now()
			if err == nil {
				err = sw.Append(store.KindSnapshot, w.WindowEndUS, payload)
			}
		} else {
			w = s.Wire(node)
			err = sw.AppendSnapshot(w)
		}
		durable := now()
		if err != nil {
			appendErrs++
		}
		cut, ok := tk.cutOf(s.Seq)
		if !ok {
			missingCuts++
		} else {
			ps.durableMS = append(ps.durableMS, msOf(durable-cut))
			if traced {
				ps.cutSnapMS = append(ps.cutSnapMS, msOf(entry-cut))
				ps.encodeUS = append(ps.encodeUS, float64(encoded-entry)/1e3)
				ps.appendUS = append(ps.appendUS, float64(durable-encoded)/1e3)
				snapSpans.add("window", s.Seq, cut, durable)
				snapSpans.add("cut_to_snapshot", s.Seq, cut, entry)
				snapSpans.add("encode", s.Seq, entry, encoded)
				snapSpans.add("append", s.Seq, encoded, durable)
			}
		}
		if len(wires) == 0 {
			close(firstSnap)
		}
		wires = append(wires, w)
	}
	p, err := pipeline.New(cfg)
	if err != nil {
		closeSrc()
		sw.Close()
		return nil, err
	}
	agent := collect.NewAgent(node, arts.T3)
	agent.Snapshots = pipeline.NewExporter(p, node)
	addr, err := agent.Serve("127.0.0.1:0")
	if err != nil {
		closeSrc()
		sw.Close()
		return nil, err
	}
	ps.setupNS = now() - passStart

	stopPoll := make(chan struct{})
	var polls []pollRec
	var pollWG sync.WaitGroup
	pollWG.Add(1)
	go func() {
		defer pollWG.Done()
		polls = poll(addr.String(), firstSnap, stopPoll, pollSpans)
	}()

	runStart := now()
	runErr := p.Run(src)
	runEnd := now()
	close(stopPoll)
	pollWG.Wait()
	ps.runNS = runEnd - runStart
	ps.pkts = int(tk.pkts)
	ps.lagMaxNS = tk.lagMaxNS
	ps.srcNS, ps.gapNS = tk.srcNS, tk.gapNS
	mainSpans.add("run", 0, runStart, runEnd)
	// Collect while the pipeline, the store writer and every snapshot are
	// still reachable: the heap sampler reads the live heap each GC
	// marks, so this pins the end-of-run footprint, and the checks and
	// queries below start without a pending collection.
	runtime.GC()

	errs := []error{runErr, closeSrc(), agent.Err(), agent.Close(), sw.Close()}
	checkStart := now()
	b.check(ps, "run", errors.Join(errs...))
	ps.ops += len(wires)
	ps.failed += appendErrs
	if appendErrs > 0 {
		b.fail("%d of %d store appends failed", appendErrs, len(wires))
	}

	snaps := p.Snapshots()
	payloads := make([][]byte, len(wires))
	h := sha256.New()
	for i, w := range wires {
		pl, err := collect.EncodeSnapshot(w)
		if err != nil {
			b.check(ps, "encode", err)
			return ps, nil
		}
		payloads[i] = pl
		h.Write(pl)
	}
	copy(ps.digest[:], h.Sum(nil))
	b.checkWindows(ps, snaps, wires, tk, missingCuts)
	b.checkWorkload(ps, p, snaps)
	b.checkPolls(ps, polls, payloads)
	b.check(ps, "deterministic", b.checkDigest(ps.digest))
	b.checkStore(ps, dir, payloads)
	mainSpans.add("check", 0, checkStart, now())
	if b.seen != nil {
		b.seen(payloads)
	}

	b.queries(ps, dir, wires, payloads, mainSpans)
	if traced {
		ps.scoreUS = b.scoreWindows(snaps)
	}
	mainSpans.add("pass", 0, passStart, now())
	if traced {
		all := append(append(append(mainSpans.spans, readerSpans.spans...), snapSpans.spans...), pollSpans.spans...)
		ps.self = selfTimes(all)
		ps.spans = all
	}
	return ps, nil
}

// poll polls the agent from one goroutine, one connection at a time,
// from the first published window until stop closes.
func poll(addr string, first, stop <-chan struct{}, spans *spanBuf) []pollRec {
	select {
	case <-first:
	case <-stop:
		return nil
	}
	// No retries: a failed exchange is reported, not hidden.
	c := &collect.Collector{Timeout: 5 * time.Second}
	timer := time.NewTimer(pollThink)
	defer timer.Stop()
	var out []pollRec
	for i := uint64(0); ; i++ {
		select {
		case <-stop:
			return out
		default:
		}
		start := now()
		snap, err := c.PollSnapshot(addr)
		end := now()
		spans.add("poll", i, start, end)
		out = append(out, pollRec{rttNS: end - start, snap: snap, err: err})
		timer.Reset(pollThink)
		select {
		case <-stop:
			return out
		case <-timer.C:
		}
	}
}

// check counts one output check.
func (b *bench) check(ps *passStats, name string, err error) {
	ps.ops++
	if err != nil {
		ps.failed++
		b.fail("%s: %v", name, err)
	}
}

// checkWindows checks the per-window accounting invariants.
func (b *bench) checkWindows(ps *passStats, snaps []*pipeline.Snapshot, wires []*collect.Snapshot, tk *tracker, missingCuts int) {
	var err error
	switch {
	case len(snaps) == 0:
		err = errors.New("no windows published")
	case len(snaps) != len(wires):
		err = fmt.Errorf("%d snapshots retained, %d seen by OnSnapshot", len(snaps), len(wires))
	case tk.ncut != len(snaps) || missingCuts > 0:
		err = fmt.Errorf("source saw %d window cuts, pipeline published %d windows (%d without a cut)", tk.ncut, len(snaps), missingCuts)
	case !snaps[len(snaps)-1].Final:
		err = errors.New("last window not final")
	}
	b.check(ps, "windows", err)

	err = nil
	for i, s := range snaps {
		if s.Seq != uint64(i+1) && err == nil {
			err = fmt.Errorf("window %d has seq %d", i+1, s.Seq)
		}
		if s.Offered != s.Processed+s.Dropped && err == nil {
			err = fmt.Errorf("window %d: offered %d != processed %d + dropped %d", s.Seq, s.Offered, s.Processed, s.Dropped)
		}
		ps.offered += s.Offered
		ps.selected += s.Selected
		ps.dropped += s.Dropped
		ps.activePeak = max(ps.activePeak, s.ActiveFlows)
	}
	ps.windows = len(snaps)
	b.check(ps, "conservation", err)
	err = nil
	if ps.dropped != 0 {
		err = fmt.Errorf("%d packets dropped under the Block policy", ps.dropped)
	}
	b.check(ps, "no-drops", err)
	err = nil
	if ps.offered != uint64(b.in.n) || ps.pkts != b.in.n {
		err = fmt.Errorf("offered %d, source delivered %d, input has %d", ps.offered, ps.pkts, b.in.n)
	}
	b.check(ps, "offered", err)
}

// checkWorkload runs the invariant that is specific to the workload.
func (b *bench) checkWorkload(ps *passStats, p *pipeline.Pipeline, snaps []*pipeline.Snapshot) {
	switch {
	case b.w.k == 1:
		// Every packet is selected, so the summed histograms are the
		// population's, for any shard count.
		size := make([]float64, len(b.in.sizeHist))
		iat := make([]float64, len(b.in.iatHist))
		for _, s := range snaps {
			addTo(size, s.SizeCounts)
			addTo(iat, s.IatCounts)
		}
		var err error
		if !equalCounts(size, b.in.sizeHist) || !equalCounts(iat, b.in.iatHist) {
			err = errors.New("summed window histograms differ from the population's")
		}
		b.check(ps, "population-histograms", err)
	case b.w.k > 1:
		// Each shard's systematic sampler picks ⌈n_s/k⌉ of its n_s
		// packets, so the total is within shards of ⌈n/k⌉.
		want := (uint64(b.in.n) + uint64(b.w.k) - 1) / uint64(b.w.k)
		var err error
		if d := int64(ps.selected) - int64(want); d < -int64(b.shards) || d > int64(b.shards) {
			err = fmt.Errorf("selected %d, want %d ± %d", ps.selected, want, b.shards)
		}
		b.check(ps, "systematic-count", err)
	default:
		dec := p.Decisions()
		var err error
		for _, d := range dec {
			if d.K < 1 || d.K > 4096 {
				err = fmt.Errorf("window %d: k %d outside [1, 4096]", d.Window, d.K)
			}
			if d.K != d.PrevK {
				ps.kChanges++
			}
		}
		for _, s := range snaps {
			if s.K < 1 || s.K > 4096 {
				err = fmt.Errorf("window %d ran at k %d", s.Seq, s.K)
			}
		}
		if len(dec) == 0 {
			err = errors.New("adaptive control made no decisions")
		}
		b.check(ps, "adaptive-bounds", err)
	}
}

func addTo(dst, src []float64) {
	for i, v := range src {
		dst[i] += v
	}
}

func equalCounts(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Abs(a[i]-b[i]) > 0.5 {
			return false
		}
	}
	return true
}

// checkPolls accounts the polls and checks every polled snapshot
// against the live payload of the same window.
func (b *bench) checkPolls(ps *passStats, polls []pollRec, payloads [][]byte) {
	var lastSeq uint64
	var bad error
	for _, pr := range polls {
		ps.polls++
		ps.ops++
		if pr.err != nil {
			ps.pollErrs++
			ps.failed++
			b.fail("poll: %v", pr.err)
			continue
		}
		ps.pollMS = append(ps.pollMS, msOf(pr.rttNS))
		if pr.snap.Seq <= lastSeq {
			ps.pollStale++
		}
		lastSeq = max(lastSeq, pr.snap.Seq)
		if bad != nil {
			continue
		}
		pl, err := collect.EncodeSnapshot(pr.snap)
		switch {
		case err != nil:
			bad = err
		case pr.snap.Seq == 0 || pr.snap.Seq > uint64(len(payloads)):
			bad = fmt.Errorf("polled window %d of %d", pr.snap.Seq, len(payloads))
		case !bytes.Equal(pl, payloads[pr.snap.Seq-1]):
			bad = fmt.Errorf("polled window %d differs from the live payload", pr.snap.Seq)
		}
	}
	b.check(ps, "polled-payloads", bad)
}

// checkDigest compares a pass's payload digest with the first pass's:
// under the Block policy every pass over the same input is
// bit-identical.
func (b *bench) checkDigest(d [32]byte) error {
	if !b.haveDig {
		b.digest, b.haveDig = d, true
		return nil
	}
	if d != b.digest {
		return errors.New("stored payloads differ from the first pass's")
	}
	return nil
}

// checkStore replays the store against the live payloads, verifies
// its chain, and measures its footprint.
func (b *bench) checkStore(ps *passStats, dir string, payloads [][]byte) {
	r, err := store.OpenReader(dir)
	if err == nil {
		i := 0
		start := now()
		err = r.Replay(func(rec store.Record) error {
			if i >= len(payloads) || rec.Kind != store.KindSnapshot || !bytes.Equal(rec.Payload, payloads[i]) {
				return fmt.Errorf("record %d differs from the live payload", i)
			}
			i++
			return nil
		})
		if i > 0 {
			ps.replayNS = float64(now()-start) / float64(i)
		}
		if err == nil && i != len(payloads) {
			err = fmt.Errorf("replayed %d records, stored %d", i, len(payloads))
		}
	}
	b.check(ps, "replay", err)

	start := now()
	err = store.Verify(dir)
	ps.verifyMS = msOf(now() - start)
	b.check(ps, "verify", err)

	ents, err := os.ReadDir(dir)
	if err != nil {
		b.check(ps, "store-dir", err)
		return
	}
	for _, e := range ents {
		if !strings.HasPrefix(e.Name(), "seg-") {
			continue
		}
		if info, err := e.Info(); err == nil {
			ps.storeBytes += info.Size()
			ps.segments++
		}
	}
}

// queries runs the post-run query phase: store.OpenReader plus
// Reader.Snapshots over the fixed 15-minute virtual range, the nocquery
// path, repeated w.queries times.
func (b *bench) queries(ps *passStats, dir string, wires []*collect.Snapshot, payloads [][]byte, spans *spanBuf) {
	from, to := b.in.firstUS+queryFromUS, b.in.firstUS+queryToUS
	var want []int
	for i, w := range wires {
		if w.WindowEndUS >= from && w.WindowEndUS <= to {
			want = append(want, i)
		}
	}
	for q := 0; q < b.w.queries; q++ {
		start := now()
		r, err := store.OpenReader(dir)
		var got []*collect.Snapshot
		if err == nil {
			got, err = r.Snapshots(from, to)
		}
		end := now()
		spans.add("query", uint64(q), start, end)
		ps.queryMS = append(ps.queryMS, msOf(end-start))
		if err == nil && len(got) != len(want) {
			err = fmt.Errorf("query returned %d windows, want %d", len(got), len(want))
		}
		if err == nil && q == 0 {
			for j, s := range got {
				pl, perr := collect.EncodeSnapshot(s)
				if perr != nil || !bytes.Equal(pl, payloads[want[j]]) {
					err = fmt.Errorf("queried window %d differs from the live payload", s.Seq)
					break
				}
			}
		}
		b.check(ps, "query", err)
	}
}

// scoreWindows times core.Evaluator.ScoreCounts on each scored window's
// merged counts, both targets, and returns µs per window.
func (b *bench) scoreWindows(snaps []*pipeline.Snapshot) float64 {
	var total int64
	n := 0
	for _, s := range snaps {
		if s.SizeReport == nil || s.IatReport == nil {
			continue
		}
		start := now()
		_, err1 := b.in.sizeEval.ScoreCounts(s.SizeCounts)
		_, err2 := b.in.iatEval.ScoreCounts(s.IatCounts)
		total += now() - start
		if err1 == nil && err2 == nil {
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return float64(total) / 1e3 / float64(n)
}
