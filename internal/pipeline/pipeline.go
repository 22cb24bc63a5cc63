// Package pipeline composes the repository's streaming pieces into the
// operational system of the paper's Section 2: a node that continuously
// samples its forwarding path and answers NOC queries. It is the
// production-shaped counterpart of the batch machinery in internal/core
// — sample → ingest → shard → aggregate → export over live packet
// streams, with bounded queues, an explicit overload policy, and
// windowed snapshots a collector can poll.
//
// Architecture (DESIGN.md §10):
//
//	            reader (Run goroutine)
//	               │  selected packets + gap stamps + window barriers,
//	               │  sequence-numbered, round-robin
//	    ┌──────────┴──────────┐        per-worker SPSC ring
//	ingest worker 0 … ingest worker N-1    (5-tuple hashing)
//	    │        ╲    ╱        │       per-(worker,shard) SPSC rings
//	shard 0 ──────╳╳──────  shard S-1      (seq-ordered consume)
//	    │ snapshot parts       │
//	    └───── collector ──────┘       merge / score / publish
//
// The reader runs on the goroutine that calls Run: it pulls packet
// batches from any Source (preferring the zero-copy RawBatchSource and
// the amortized BatchSource forms — an mmap'd NSTR file, an NSTR stream
// reader, an in-memory trace replay, a generated workload), runs the
// pipeline's one online.Sampler over the whole stream, stamps each
// selected packet with its interarrival gap against its stream
// predecessor (the quantity a monitor with a last-packet timestamp
// register observes), and hands sequence-numbered units of selected
// packets round-robin to N ingest workers — the paper's T3 posture of
// sampling in the forwarding path and categorizing only the sample.
// Each ingest worker hashes its units' packets to shards by a
// deterministic hash of the 5-tuple — so every flow lives on exactly
// one shard — and publishes per-shard
// item batches into lock-free single-producer/single-consumer rings,
// one per (worker, shard) pair. A shard worker consumes its N rings in
// global sequence order, so the packets of one shard are processed in
// exact stream order regardless of how many ingest workers raced to
// hash them: with the Block policy the pipeline is deterministic, and
// because selection precedes the fan-out its snapshots are
// bit-identical to the batch evaluator for any shard and worker count
// (TestSingleShardSnapshotMatchesBatch).
//
// All queues are bounded; when a shard falls behind, the configured
// OverloadPolicy either blocks the fan-out (lossless backpressure all
// the way to the reader) or counts-and-drops the overflowing batch of
// selected packets — drop deltas ride the next message on the same
// ring, so the per-window accounting invariants Offered == Processed +
// Dropped and Selected + Dropped == the reader's selection are exact
// and drops are surfaced per shard in every Snapshot, never silent.
//
// Each shard maintains incremental aggregates over the selected
// packets it receives: per-bin size and interarrival histogram counts
// (bins.Scheme), a flows.Table of transport flows, and an nnstat.TopK
// heavy-hitter sketch. Windowing is driven by a virtual
// clock — the packet timestamps themselves — so a run is bit-for-bit
// reproducible regardless of wall-clock speed or scheduling: the reader
// emits a window barrier as one marker unit per ingest worker (N
// consecutive sequence numbers), each worker forwards its fragment
// through every shard ring, and a shard's cut happens when it has
// consumed all N fragments — because messages travel in sequence order
// with the data, a snapshot reflects exactly the packets that preceded
// the cut in the stream (a Chandy-Lamport-style consistent cut over the
// fan-out DAG).
//
// A snapshot collector goroutine merges the per-shard partial states of
// each barrier into one Snapshot and, when reference Evaluators are
// configured, scores the merged histogram counts against the reference
// population with core.Evaluator.ScoreCounts — the same fused φ kernel
// the batch experiments use, so a snapshot is bit-identical to the
// batch evaluator on the same trace and seed (pinned by
// TestSingleShardSnapshotMatchesBatch and the cmd/nsd integration
// tests).
package pipeline

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"unsafe"

	"netsample/internal/bins"
	"netsample/internal/core"
	"netsample/internal/cputopo"
	"netsample/internal/online"
	"netsample/internal/trace"
)

// Source yields packets in arrival order, one at a time, returning
// io.EOF when the stream ends. *trace.StreamReader and *trace.Replayer
// both satisfy it (and also the amortized BatchSource, which Run
// prefers when available).
type Source interface {
	Next() (trace.Packet, error)
}

// OverloadPolicy selects what the fan-out does when a shard's bounded
// work ring is full.
type OverloadPolicy int

const (
	// Block applies lossless backpressure: the fan-out waits for ring
	// space. This is the deterministic mode — every packet reaches its
	// shard.
	Block OverloadPolicy = iota
	// Drop counts and discards the overflowing batch, the NetFlow-style
	// behavior under export pressure. Drops are reported per shard in
	// every Snapshot; window barriers are never dropped.
	Drop
)

// String names the policy for flags and logs.
func (p OverloadPolicy) String() string {
	if p == Drop {
		return "drop"
	}
	return "block"
}

// Configuration defaults.
const (
	DefaultQueueDepth    = 8
	DefaultBatchSize     = 256
	DefaultFlowTimeoutUS = 15_000_000 // 15 s idle, the classic NetFlow default
	DefaultTopKCapacity  = 128
	DefaultTopKReport    = 10
)

// Config parameterizes a Pipeline.
type Config struct {
	// Shards is the number of worker shards (>= 1).
	Shards int
	// IngestWorkers is the number of parallel hash/fan-out workers
	// between the reader and the shards (1 if zero). Under the Block
	// policy the pipeline output is identical for any worker count;
	// more workers spread the 5-tuple hashing and ring publishing
	// across cores when the shards outrun a single fan-out goroutine.
	IngestWorkers int
	// QueueDepth bounds each ring of the fan-out DAG, in batches
	// (DefaultQueueDepth if zero).
	QueueDepth int
	// BatchSize is the number of selected packets per unit — the batch
	// the reader hands an ingest worker (DefaultBatchSize if zero). The
	// reader reads as many packets as it takes to select that many.
	// Larger batches amortize source calls and ring operations; 1
	// disables batching.
	BatchSize int
	// Policy is the overload policy (Block if unset).
	Policy OverloadPolicy

	// NewSampler builds the pipeline's sampler (online.NewMethod builds
	// the paper's four). New calls it exactly once, with argument 0;
	// the reader runs that one sampler over the whole stream before the
	// fan-out, so the selected set is the same for any shard and worker
	// count. Required unless Adaptive is set. Count-driven samplers
	// (online.Counted) let the reader jump between selections; any
	// other Sampler is offered every packet.
	NewSampler func(shard int) (online.Sampler, error)

	// Adaptive, when set, replaces NewSampler with the closed-loop
	// systematic schedule: the reader's sampler is a systematic one, and
	// a per-window control step on the barrier steers its k within
	// [MinK, MaxK]. Requires WindowUS > 0 (the control loop lives on the
	// window cut). Mutually exclusive with NewSampler.
	Adaptive *AdaptiveConfig

	// SizeScheme and IatScheme bin the two characterization targets
	// (paper schemes if nil).
	SizeScheme bins.Scheme
	IatScheme  bins.Scheme

	// FlowTimeoutUS is the flow idle timeout in µs
	// (DefaultFlowTimeoutUS if zero).
	FlowTimeoutUS int64
	// TopKCapacity is each shard's heavy-hitter sketch size
	// (DefaultTopKCapacity if zero).
	TopKCapacity int
	// TopKReport is the number of merged heavy hitters per Snapshot
	// (DefaultTopKReport if zero).
	TopKReport int

	// WindowUS is the snapshot window length on the virtual clock
	// (packet timestamps), in µs. Zero means a single window closed
	// when the source drains.
	WindowUS int64

	// Pinning pins the reader, ingest workers, and shard workers to
	// logical CPUs chosen by a topology-aware plan (cputopo.Plan):
	// LLC domains are filled in order, physical cores before SMT
	// siblings, so each SPSC ring's producer/consumer pair shares a
	// last-level cache whenever the pipeline fits in one domain.
	// Strictly best-effort — on non-Linux platforms or under cgroup
	// cpuset restrictions the affinity calls fail, are counted
	// (PinFailures), and the pipeline runs unpinned. Pinning never
	// changes the output: under the Block policy snapshots are
	// bit-identical with it on or off.
	Pinning bool
	// Topology overrides the detected machine layout (mainly for
	// tests). Nil means detect: sysfs on Linux, a flat fallback
	// elsewhere. Also consulted, when available, to size the fan-out
	// rings as a fraction of the LLC if QueueDepth is zero.
	Topology *cputopo.Topology

	// SizeEval and IatEval, when set, score each snapshot's merged
	// histogram counts against their reference populations
	// (core.Evaluator.ScoreCounts). Their schemes must match
	// SizeScheme/IatScheme bin-for-bin.
	SizeEval *core.Evaluator
	IatEval  *core.Evaluator

	// OnSnapshot, when set, is invoked from the snapshot collector
	// goroutine for every published Snapshot, in window order.
	OnSnapshot func(*Snapshot)
}

// Errors returned by New and Run.
var (
	ErrConfig = errors.New("pipeline: invalid configuration")
	ErrReused = errors.New("pipeline: Run may be called once per Pipeline")
)

// Pipeline is one running instance of the streaming characterization
// node. Build with New, drive with Run, interrogate with Latest or
// Snapshots.
type Pipeline struct {
	cfg    Config
	shards []*shardState
	ingest []*ingestState

	barriers chan *barrier
	useq     uint64 // unit sequence, reader-owned
	winSeq   uint64 // window sequence, reader-owned

	latest atomic.Pointer[Snapshot]
	mu     sync.Mutex
	snaps  []*Snapshot

	stopReq  atomic.Bool
	started  atomic.Bool
	ingestWG sync.WaitGroup
	shardWG  sync.WaitGroup
	done     chan struct{}

	// Thread placement (Config.Pinning). place is resolved once in New;
	// pinFails counts affinity calls the OS rejected.
	pinned   bool
	place    cputopo.Placement
	pinFails atomic.Uint64

	// sel is the pipeline's one sampler, reader-owned.
	sel selector

	// Adaptive-control state (Config.Adaptive). adaptSys is the reader's
	// systematic sampler, which the barrier handshake re-anchors at each
	// decided change of k. adaptK is collector-owned; the handshake
	// (barrier.decided) orders every cross-ownership access. decisions
	// is guarded by mu.
	adaptSys  *online.Systematic
	adaptK    int
	decisions []AdaptiveDecision

	// shardStart, when set, runs on each shard worker before it consumes
	// anything. Tests use it to wedge a shard.
	shardStart func(shard int)
}

// New validates cfg and builds a ready-to-Run pipeline.
func New(cfg Config) (*Pipeline, error) {
	if cfg.Shards < 1 {
		return nil, fmt.Errorf("%w: Shards must be >= 1", ErrConfig)
	}
	if cfg.NewSampler == nil && cfg.Adaptive == nil {
		return nil, fmt.Errorf("%w: NewSampler is required", ErrConfig)
	}
	if cfg.Adaptive != nil {
		if cfg.NewSampler != nil {
			return nil, fmt.Errorf("%w: Adaptive replaces NewSampler; set only one", ErrConfig)
		}
		if err := cfg.Adaptive.validate(); err != nil {
			return nil, err
		}
		if cfg.WindowUS <= 0 {
			return nil, fmt.Errorf("%w: Adaptive requires WindowUS > 0", ErrConfig)
		}
	}
	if cfg.IngestWorkers == 0 {
		cfg.IngestWorkers = 1
	}
	if cfg.IngestWorkers < 1 {
		return nil, fmt.Errorf("%w: IngestWorkers must be >= 1", ErrConfig)
	}
	if cfg.BatchSize == 0 {
		cfg.BatchSize = DefaultBatchSize
	}
	topo := cfg.Topology
	if topo == nil && cfg.Pinning {
		topo = cputopo.Detect()
	}
	if cfg.QueueDepth == 0 {
		cfg.QueueDepth = autoQueueDepth(topo, cfg.IngestWorkers, cfg.Shards, cfg.BatchSize)
	}
	if cfg.QueueDepth < 1 {
		return nil, fmt.Errorf("%w: QueueDepth must be >= 1", ErrConfig)
	}
	if cfg.BatchSize < 1 {
		return nil, fmt.Errorf("%w: BatchSize must be >= 1", ErrConfig)
	}
	if cfg.WindowUS < 0 {
		return nil, fmt.Errorf("%w: WindowUS must be >= 0", ErrConfig)
	}
	if cfg.SizeScheme == nil {
		cfg.SizeScheme = bins.PacketSize()
	}
	if cfg.IatScheme == nil {
		cfg.IatScheme = bins.Interarrival()
	}
	if cfg.FlowTimeoutUS == 0 {
		cfg.FlowTimeoutUS = DefaultFlowTimeoutUS
	}
	if cfg.TopKCapacity == 0 {
		cfg.TopKCapacity = DefaultTopKCapacity
	}
	if cfg.TopKReport == 0 {
		cfg.TopKReport = DefaultTopKReport
	}
	if cfg.SizeEval != nil && cfg.SizeEval.NumBins() != cfg.SizeScheme.NumBins() {
		return nil, fmt.Errorf("%w: SizeEval has %d bins, SizeScheme %d",
			ErrConfig, cfg.SizeEval.NumBins(), cfg.SizeScheme.NumBins())
	}
	if cfg.IatEval != nil && cfg.IatEval.NumBins() != cfg.IatScheme.NumBins() {
		return nil, fmt.Errorf("%w: IatEval has %d bins, IatScheme %d",
			ErrConfig, cfg.IatEval.NumBins(), cfg.IatScheme.NumBins())
	}

	p := &Pipeline{
		cfg:      cfg,
		barriers: make(chan *barrier, cfg.QueueDepth),
		done:     make(chan struct{}),
	}
	if cfg.Pinning {
		p.pinned = true
		p.place = cputopo.Plan(topo, cfg.IngestWorkers, cfg.Shards)
	}
	var sampler online.Sampler
	if cfg.Adaptive != nil {
		sys, err := online.NewSystematic(cfg.Adaptive.StartK, 0)
		if err != nil {
			return nil, fmt.Errorf("pipeline: adaptive sampler: %w", err)
		}
		p.adaptSys = sys
		p.adaptK = cfg.Adaptive.StartK
		sampler = sys
	} else {
		var err error
		if sampler, err = cfg.NewSampler(0); err != nil {
			return nil, fmt.Errorf("pipeline: sampler: %w", err)
		}
		if sampler == nil {
			return nil, fmt.Errorf("%w: NewSampler returned no sampler", ErrConfig)
		}
	}
	p.sel = newSelector(sampler)
	p.shards = make([]*shardState, cfg.Shards)
	sizeLUT := buildSizeLUT(cfg.SizeScheme)
	for i := range p.shards {
		st, err := newShardState(i, &cfg, sizeLUT)
		if err != nil {
			return nil, err
		}
		p.shards[i] = st
	}
	p.ingest = make([]*ingestState, cfg.IngestWorkers)
	for w := range p.ingest {
		p.ingest[w] = newIngestState(w, &cfg)
	}
	// Wire the per-(worker, shard) rings into each shard's consume and
	// recycle fan-in, in worker order, plus the sequencing state the
	// shard's consume loop tracks per worker (allocated here, cold, so
	// shardWorker itself allocates nothing).
	for _, st := range p.shards {
		st.in = make([]*spsc[shardMsg], cfg.IngestWorkers)
		st.free = make([]*spsc[[]item], cfg.IngestWorkers)
		st.epochs = make([]*epoch, cfg.IngestWorkers)
		st.retired = make([]bool, cfg.IngestWorkers)
		st.skipUntil = make([]uint64, cfg.IngestWorkers)
		st.spin = make([]spinState, cfg.IngestWorkers)
		for w, ig := range p.ingest {
			st.in[w] = ig.out[st.id]
			st.free[w] = ig.freeItems[st.id]
			st.epochs[w] = ig.epoch
			st.spin[w] = newSpinState()
		}
	}
	return p, nil
}

// autoQueueDepth picks the fan-out ring depth when Config.QueueDepth
// is zero. Without cache information it is DefaultQueueDepth. With a
// detected LLC it sizes the rings so that one fully queued layer of
// item batches across every (worker, shard) ring fits in a quarter of
// one LLC — deep enough to absorb scheduling jitter, shallow enough
// that a producer's freshly written batches are still cache-resident
// when the consumer drains them. Depth only bounds queueing, never
// content: under the Block policy output is invariant to it.
func autoQueueDepth(topo *cputopo.Topology, workers, shards, batchSize int) int {
	if topo == nil || topo.LLCBytes <= 0 || workers < 1 || shards < 1 || batchSize < 1 {
		return DefaultQueueDepth
	}
	layer := int64(workers) * int64(shards) * int64(batchSize) * int64(unsafe.Sizeof(item{}))
	depth := (topo.LLCBytes / 4) / layer
	if depth < 2 {
		return 2
	}
	if depth > 64 {
		return 64
	}
	return int(depth)
}

// pinIngest places an ingest worker's OS thread per the topology plan.
// Runs once at worker startup; failures are counted, never fatal.
//
//nslint:coldpath one-time thread placement at worker startup, never on the packet path
func (p *Pipeline) pinIngest(id int) {
	if p.pinned && id < len(p.place.Ingest) {
		p.pinTo(p.place.Ingest[id])
	}
}

// pinShard places a shard worker's OS thread per the topology plan.
//
//nslint:coldpath one-time thread placement at worker startup, never on the packet path
func (p *Pipeline) pinShard(id int) {
	if p.pinned && id < len(p.place.Shards) {
		p.pinTo(p.place.Shards[id])
	}
}

// pinTo locks the calling goroutine to its OS thread and restricts the
// thread to one CPU. The lock is deliberately never released: worker
// goroutines exit with Run, and a locked goroutine's thread is retired
// with it, so the affinity never leaks to unrelated goroutines.
//
//nslint:coldpath one-time thread placement at worker startup, never on the packet path
func (p *Pipeline) pinTo(cpu int) {
	if cpu < 0 {
		return
	}
	runtime.LockOSThread()
	if err := cputopo.PinThread(cpu); err != nil {
		p.pinFails.Add(1)
	}
}

// pinReader places the reader — which runs on the Run caller's
// goroutine — and returns a restore function for Run to defer: the
// caller's thread outlives Run, so its affinity must be put back.
//
//nslint:coldpath one-time thread placement around the read loop, never on the packet path
func (p *Pipeline) pinReader() func() {
	if !p.pinned || p.place.Reader < 0 {
		return func() {}
	}
	runtime.LockOSThread()
	prev, err := cputopo.GetAffinity()
	if err != nil {
		p.pinFails.Add(1)
		runtime.UnlockOSThread()
		return func() {}
	}
	if err := cputopo.PinThread(p.place.Reader); err != nil {
		p.pinFails.Add(1)
		runtime.UnlockOSThread()
		return func() {}
	}
	return func() {
		if err := cputopo.SetAffinity(prev); err != nil {
			p.pinFails.Add(1)
		}
		runtime.UnlockOSThread()
	}
}

// PinFailures reports how many thread-affinity calls the OS rejected
// during this run — nonzero typically means a cgroup cpuset
// (containerized runner) or a non-Linux platform; the pipeline ran
// correctly but unpinned.
func (p *Pipeline) PinFailures() uint64 { return p.pinFails.Load() }

// Run drives the pipeline to completion: it reads src on the calling
// goroutine until io.EOF, a source error, or Stop, then drains the
// workers, publishes the final Snapshot, and returns the source error
// if any. The reader prefers the richest source form available: a
// RawBatchSource (e.g. *trace.MapReader) feeds the zero-copy raw path —
// the reader selects from record windows undecoded and the workers run
// the fused decode/hash/gap kernel on the selected records in parallel
// — a BatchSource pulls
// whole decoded batches, and a plain Source is adapted per packet.
// Under the Block policy all three paths produce identical snapshots.
// Run may be called once per Pipeline.
func (p *Pipeline) Run(src Source) error {
	if !p.started.CompareAndSwap(false, true) {
		return ErrReused
	}
	for _, ig := range p.ingest {
		p.ingestWG.Add(1)
		go p.ingestWorker(ig)
	}
	for _, st := range p.shards {
		p.shardWG.Add(1)
		go p.shardWorker(st)
	}
	go p.collect()
	defer p.pinReader()()

	var srcErr error
	// The raw path carries shard indices as uint8, so it requires at
	// most 256 shards; beyond that (or without a raw source) the decoded
	// batch path applies.
	if rs, ok := src.(RawBatchSource); ok && len(p.shards) <= 256 {
		srcErr = p.readRaw(rs)
	} else {
		bs, ok := src.(BatchSource)
		if !ok {
			// The adapter checks the stop request between packets, so Stop
			// retains its packet-granular semantics on per-packet sources.
			bs = &batchAdapter{src: src, stop: &p.stopReq}
		}
		srcErr = p.read(bs)
	}

	for _, ig := range p.ingest {
		ig.in.close()
	}
	p.ingestWG.Wait()
	p.shardWG.Wait()
	close(p.barriers)
	<-p.done
	return srcErr
}

// Stop asks a concurrent Run to stop reading after the packet in
// flight (after the batch in flight for a native BatchSource); Run
// then drains normally and publishes the final snapshot. Safe to call
// from any goroutine, any number of times.
func (p *Pipeline) Stop() { p.stopReq.Store(true) }

// Latest returns the most recently published snapshot.
func (p *Pipeline) Latest() (*Snapshot, bool) {
	s := p.latest.Load()
	return s, s != nil
}

// Snapshots returns the published snapshots in window order.
func (p *Pipeline) Snapshots() []*Snapshot {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]*Snapshot(nil), p.snaps...)
}

// read is the sequential stage: it owns the virtual clock, the window
// barriers, the selection, the gap stamps, and the unit sequence
// numbers. It runs on the Run caller's goroutine. Everything downstream
// may be parallel because everything order-sensitive is decided here.
//
// Each batch lands in the unit buffer behind the packets already
// selected; the walk compacts the selected ones forward in place, each
// with its full-stream gap, so a unit carries only the sample and is
// sent once it holds BatchSize selections. At k = 1 every packet stays
// where it landed and nothing is copied.
//
//nslint:hotpath
func (p *Pipeline) read(bs BatchSource) error {
	var (
		srcErr    error
		prevTime  int64
		winStart  int64
		nextWin   = int64(math.MaxInt64)
		windowing = p.cfg.WindowUS > 0
		idx       uint64 // stream index of the packet being walked
		offered   uint64 // this window
		selected  uint64 // this window
		lastTime  int64
	)
	sl := &p.sel
	cur := p.takeUnit(p.useq)
	w := 0 // selected packets compacted at the front of cur
	for !p.stopReq.Load() {
		n, err := bs.NextBatch(cur.pkts[w:p.cfg.BatchSize])
		if err != nil {
			if !errors.Is(err, io.EOF) {
				//nslint:allow hotalloc error path: one wrap at stream end, never per packet
				srcErr = fmt.Errorf("pipeline: source: %w", err)
			}
			// Packets returned alongside the error are still delivered.
		}
		if idx == 0 && n > 0 {
			first := cur.pkts[w].Time
			winStart = first
			if windowing {
				nextWin = first + p.cfg.WindowUS
			}
			// The stream's first packet has no predecessor: seeding the
			// chain with its own timestamp yields gap 0, and noGap0 masks
			// the observation in the worker.
			prevTime = first
		}
		limit := min(nextWin, sl.due)
		for i, end := w, w+n; i < end; i++ {
			t := cur.pkts[i].Time
			sel := false
			if t >= limit {
				for windowing && t >= nextWin {
					cur, w, i, end = p.cutUnit(cur, w, i, end)
					p.emitBarrier(winStart, nextWin, false, offered, selected, idx)
					offered, selected = 0, 0
					winStart = nextWin
					nextWin += p.cfg.WindowUS
				}
				if t >= sl.due {
					sel = sl.s.Offer(t)
				}
				limit = min(nextWin, sl.due)
			}
			if idx == sl.next {
				sl.take(idx)
				sel = true
			}
			if sel {
				if w != i {
					cur.pkts[w] = cur.pkts[i]
				}
				cur.gaps[w] = t - prevTime
				if idx == 0 {
					cur.noGap0 = true
				}
				w++
				selected++
			}
			prevTime = t
			offered++
			idx++
		}
		if n > 0 {
			lastTime = prevTime
		}
		if w == p.cfg.BatchSize {
			p.sendUnit(cur, w)
			cur = p.takeUnit(p.useq)
			w = 0
		}
		if err != nil {
			break
		}
	}
	if w > 0 {
		p.sendUnit(cur, w)
	}
	endUS := lastTime + 1
	if idx == 0 {
		winStart, endUS = 0, 0
	}
	p.emitBarrier(winStart, endUS, true, offered, selected, idx)
	return srcErr
}

// cutUnit closes the unit being walked at a window cut in front of
// packet i: the selected packets [0, w) leave as their own unit and the
// unwalked remainder [i, end) moves to the front of a fresh buffer,
// where the walk resumes. With nothing selected yet the cut precedes
// the unit, which keeps its buffer.
func (p *Pipeline) cutUnit(cur *unitBuf, w, i, end int) (*unitBuf, int, int, int) {
	if w == 0 {
		return cur, 0, i, end
	}
	next := p.takeUnit(p.useq + 1)
	rest := copy(next.pkts[:end-i], cur.pkts[i:end])
	p.sendUnit(cur, w)
	return next, 0, 0, rest
}

// readRaw is the zero-copy form of read: it pulls raw record windows
// from the source and forwards only the selected records, undecoded,
// to the ingest workers — a unit is a record window plus the list of
// its selected record offsets, and the workers decode, hash and
// gap-stamp just those (partitionRaw). The reader touches only the
// 8-byte timestamp field of a record, and only when windowing or a
// non-count-driven sampler needs it: a count-driven sampler without windowing
// jumps straight from one selected index to the next, making the
// sequential stage O(selected) instead of O(packets).
//
// A unit closes when it holds BatchSize selections, at a window cut,
// or at the end of the source window, so the reader asks the source
// for about BatchSize selections' worth of records (nextSpan). Window
// cuts slice the raw window at record granularity, so barrier
// positions, per-window counts, selections and gap observations are
// identical to the decoded path; unit boundaries may differ, which is
// invisible under the Block policy because snapshots are invariant to
// unit grouping.
//
//nslint:hotpath
func (p *Pipeline) readRaw(rs RawBatchSource) error {
	var (
		srcErr    error
		prevUS    int64 // timestamp of the record preceding the source window
		winStart  int64
		nextWin   = int64(math.MaxInt64)
		windowing = p.cfg.WindowUS > 0
		base      uint64 // stream index of the source window's first record
		offered   uint64 // this window
		selected  uint64 // this window
		lastTime  int64
		span      = p.cfg.BatchSize
	)
	sl := &p.sel
	// A count-driven sampler without windowing never needs a timestamp.
	scan := windowing || sl.count == nil
	cur := p.takeUnit(p.useq)
	for !p.stopReq.Load() {
		raw, n, err := rs.NextRawBatch(span)
		if err != nil && !errors.Is(err, io.EOF) {
			//nslint:allow hotalloc error path: one wrap at stream end, never per packet
			srcErr = fmt.Errorf("pipeline: source: %w", err)
		}
		// Records returned alongside an error are still delivered.
		if n > 0 {
			if base == 0 {
				first := rawTime(raw, 0)
				winStart = first
				if windowing {
					nextWin = first + p.cfg.WindowUS
				}
				prevUS = first // gap 0 for the stream's first record, masked by noGap0
			}
			seg := 0 // first record of the unit being filled
			picked := 0
			if scan {
				limit := min(nextWin, sl.due)
				for i := 0; i < n; i++ {
					t := rawTime(raw, i)
					sel := false
					if t >= limit {
						for windowing && t >= nextWin {
							if len(cur.offs) > 0 {
								cur = p.sendRawUnit(cur, raw, seg, i, prevUS, base)
							}
							seg = i
							p.emitBarrier(winStart, nextWin, false, offered, selected, base+uint64(i))
							offered, selected = 0, 0
							winStart = nextWin
							nextWin += p.cfg.WindowUS
						}
						if t >= sl.due {
							sel = sl.s.Offer(t)
						}
						limit = min(nextWin, sl.due)
					}
					if base+uint64(i) == sl.next {
						sl.take(sl.next)
						sel = true
					}
					offered++
					if sel {
						//nslint:allow hotalloc append into a cap-pinned recycled buffer: a unit is sent as soon as it holds BatchSize offsets, the capacity every offset list is made with
						cur.offs = append(cur.offs, uint32(i-seg))
						selected++
						picked++
						if len(cur.offs) == p.cfg.BatchSize {
							cur = p.sendRawUnit(cur, raw, seg, i+1, prevUS, base)
							seg = i + 1
						}
					}
				}
			} else {
				for end := base + uint64(n); sl.next < end; {
					i := int(sl.next - base)
					sl.take(sl.next)
					//nslint:allow hotalloc append into a cap-pinned recycled buffer: a unit is sent as soon as it holds BatchSize offsets, the capacity every offset list is made with
					cur.offs = append(cur.offs, uint32(i-seg))
					picked++
					if len(cur.offs) == p.cfg.BatchSize {
						cur = p.sendRawUnit(cur, raw, seg, i+1, prevUS, base)
						seg = i + 1
					}
				}
				offered += uint64(n)
				selected += uint64(picked)
			}
			if len(cur.offs) > 0 {
				cur = p.sendRawUnit(cur, raw, seg, n, prevUS, base)
			}
			lastTime = rawTime(raw, n-1)
			prevUS = lastTime
			base += uint64(n)
			span = nextSpan(span, p.cfg.BatchSize, n, picked)
		}
		if err != nil {
			break
		}
	}
	endUS := lastTime + 1
	if base == 0 {
		winStart, endUS = 0, 0
	}
	p.emitBarrier(winStart, endUS, true, offered, selected, base)
	return srcErr
}

// rawTime reads record i's timestamp field from a raw record window —
// the only field the raw reader ever decodes.
//
//nslint:hotpath
func rawTime(raw []byte, i int) int64 {
	return int64(binary.LittleEndian.Uint64(raw[i*trace.RecordLen:]))
}

// sendRawUnit hands the [from, to) record sub-window of raw, with the
// selected offsets collected in buf, to its round-robin ingest worker,
// consuming one sequence number, and returns a fresh buffer for the
// next unit. The slice aliases the source's region (stable until Run
// returns, per RawBatchSource); prevUS is the timestamp of the record
// preceding raw, and base is raw's first stream index. Reader
// goroutine only.
//
//nslint:hotpath
func (p *Pipeline) sendRawUnit(buf *unitBuf, raw []byte, from, to int, prevUS int64, base uint64) *unitBuf {
	if from > 0 {
		prevUS = rawTime(raw, from-1)
	}
	buf.noGap0 = base+uint64(from) == 0
	w := int(p.useq % uint64(len(p.ingest)))
	p.ingest[w].in.push(srcUnit{
		seq:    p.useq,
		buf:    buf,
		raw:    raw[from*trace.RecordLen : to*trace.RecordLen],
		prevUS: prevUS,
	})
	p.useq++
	return p.takeUnit(p.useq)
}

// takeUnit acquires a recycled unit buffer for the unit that will
// carry sequence number seq: p.useq for the next unit, or p.useq+1 for
// the one after a unit being split at a window cut (the barrier between
// them consumes one full round of sequence numbers, so it round-robins
// to the same worker). Buffer accounting (QueueDepth+2 units circulate
// per worker) guarantees the free ring is non-empty whenever the reader
// needs one.
func (p *Pipeline) takeUnit(seq uint64) *unitBuf {
	buf, _ := p.ingest[seq%uint64(len(p.ingest))].freeUnits.pop()
	buf.noGap0 = false
	buf.offs = buf.offs[:0]
	return buf
}

// sendUnit hands a unit of n selected, decoded packets to its
// round-robin ingest worker, consuming one sequence number. Reader
// goroutine only.
func (p *Pipeline) sendUnit(buf *unitBuf, n int) {
	w := int(p.useq % uint64(len(p.ingest)))
	p.ingest[w].in.push(srcUnit{seq: p.useq, buf: buf, n: n})
	p.useq++
}

// emitBarrier cuts the stream at the current read position: one
// barrier fragment unit per ingest worker, on N consecutive sequence
// numbers, so every worker forwards exactly one fragment through each
// of its shard rings and every shard observes the cut at the same
// stream offset. Fragments are always delivered — overload may drop
// data batches, never a cut. offered and selected are the window's
// reader counts; at is the stream index of the first packet after the
// cut.
//
// In adaptive mode the barrier doubles as the control-loop handshake:
// the reader parks on bar.decided until the collector has merged the
// window and run the control step, then adopts the decided k. Parking
// here cannot deadlock — every unit and fragment of the window was
// pushed before the wait, so the shards can always reach the cut and
// the collector always closes decided. The wait is what makes adaptive
// runs deterministic for any worker/shard count: every packet of
// window w+1 is selected under the k decided from window w, regardless
// of how the goroutines interleave.
//
//nslint:coldpath runs once per window boundary; its allocations amortize over the window's packets
func (p *Pipeline) emitBarrier(startUS, endUS int64, final bool, offered, selected, at uint64) {
	p.winSeq++
	bar := &barrier{
		seq:      p.winSeq,
		startUS:  startUS,
		endUS:    endUS,
		final:    final,
		offered:  offered,
		selected: selected,
		parts:    make(chan shardPart, len(p.shards)),
	}
	if p.adaptSys != nil {
		bar.decided = make(chan struct{})
	}
	for range p.ingest {
		w := int(p.useq % uint64(len(p.ingest)))
		p.ingest[w].in.push(srcUnit{seq: p.useq, bar: bar})
		p.useq++
	}
	p.barriers <- bar
	if bar.decided != nil {
		<-bar.decided
		if bar.nextK != p.adaptSys.K() {
			// New granularity regime: re-anchor the schedule so the first
			// packet of the next window is selected. decide clamps k to
			// [MinK, MaxK], so SetGranularity cannot fail.
			if err := p.adaptSys.SetGranularity(bar.nextK); err == nil {
				p.adaptSys.Reset()
				p.sel.rearm(at)
			}
		}
	}
}

// shardOf assigns a packet to a shard by an FNV-1a hash of its 5-tuple,
// so a flow's packets always land on one shard and per-shard flow
// tables and heavy-hitter sketches are exact partitions.
func (p *Pipeline) shardOf(pkt trace.Packet) int {
	return shardIndex(&pkt, len(p.shards))
}
