package pipeline

import (
	"encoding/binary"
	"sync/atomic"

	"netsample/internal/flows"
	"netsample/internal/packet"
	"netsample/internal/trace"
)

// BatchSource is the amortized form of Source: it fills dst with the
// next packets of the stream, returning how many it wrote. Like
// io.Reader, it may return n > 0 alongside an error (including io.EOF);
// those packets precede the error in the stream. Run prefers this
// interface when a Source implements it — one interface call per batch
// instead of per packet. *trace.Replayer and *trace.StreamReader
// implement it natively.
type BatchSource interface {
	NextBatch(dst []trace.Packet) (int, error)
}

// RawBatchSource is the zero-copy form of BatchSource: instead of
// filling a caller buffer with decoded packets, it hands out windows of
// raw NSTR record bytes (length a multiple of trace.RecordLen) for up
// to max records, plus the record count. The reader selects from a
// window by timestamp and index alone; decoding the selected records
// then happens inside the parallel ingest workers — fused with shard
// hashing and gap stamping in one pass — rather than on the sequential
// reader goroutine.
//
// Contract: records in a window are consecutive stream records;
// complete records precede any error; exhaustion is (nil, 0, io.EOF).
// Every returned window must remain valid and immutable until the
// pipeline's Run returns — workers hold windows from many calls
// concurrently. *trace.MapReader satisfies this by construction (its
// views alias the mapped region until Close); a reader recycling one
// scratch buffer per call must NOT implement this interface. Run
// prefers it over BatchSource when the shard count fits the raw path
// (at most 256 shards).
type RawBatchSource interface {
	NextRawBatch(max int) ([]byte, int, error)
}

// AsBatch adapts a per-packet Source to BatchSource. If src already
// implements BatchSource it is returned unchanged.
func AsBatch(src Source) BatchSource {
	if bs, ok := src.(BatchSource); ok {
		return bs
	}
	return &batchAdapter{src: src}
}

// batchAdapter loops a per-packet Source to fill batches. The optional
// stop flag preserves Stop's packet-granular contract on adapted
// sources: the fill ends at the first packet delivered after the stop
// request, exactly where the per-packet read loop would have ended.
type batchAdapter struct {
	src  Source
	stop *atomic.Bool
}

func (a *batchAdapter) NextBatch(dst []trace.Packet) (int, error) {
	n := 0
	for n < len(dst) {
		pkt, err := a.src.Next()
		if err != nil {
			return n, err
		}
		dst[n] = pkt
		n++
		if a.stop != nil && a.stop.Load() {
			break
		}
	}
	return n, nil
}

// unitBuf is one reader-owned unit buffer, recycled through a
// per-ingest-worker free ring. A decoded unit fills pkts and gaps with
// its selected packets and their full-stream interarrival gaps; a raw
// unit fills offs with the offsets of its selected records within the
// unit's record window. All three are BatchSize long (offs by
// capacity); srcUnit.n says how much is valid.
type unitBuf struct {
	pkts []trace.Packet
	gaps []int64
	offs []uint32
	// noGap0 marks the unit whose first packet (decoded) or first
	// record (raw) is the stream's first — the only packet with no
	// interarrival observation.
	noGap0 bool
}

// srcUnit is one sequence-numbered element of the reader→ingest stream:
// a decoded data batch (buf, n), a raw record window with its selected
// offsets (raw, buf, prevUS), or a window-barrier fragment (bar). Data
// units carry only selected packets. The sequence numbers are dense
// and global — unit q goes to ingest worker q mod N, and a barrier
// consumes exactly N consecutive numbers (one fragment per worker) — so
// the round-robin phase is position-invariant and every shard can
// reconstruct global stream order from its rings.
//
// A raw window aliases the source's mapped region (stable until Run
// returns, per RawBatchSource). prevUS is the timestamp of the stream
// record preceding the window's first record, which lets the worker
// compute every selected record's gap locally.
type srcUnit struct {
	seq uint64
	buf *unitBuf
	n   int
	bar *barrier

	raw    []byte
	prevUS int64
}

// ingestState is one parallel ingest worker: it consumes its share of
// the unit stream, hashes packets to shards, and publishes per-shard
// item batches. Field ownership: in and freeUnits connect to the
// reader; out[s] and freeItems[s] connect to shard s; epoch is
// worker-stored, shard-loaded; cur and droppedSince are worker-local.
type ingestState struct {
	id        int
	in        *spsc[srcUnit]
	freeUnits *spsc[*unitBuf]
	out       []*spsc[shardMsg]
	freeItems []*spsc[[]item]
	epoch     *epoch

	// Worker-local.
	cur          [][]item
	droppedSince []uint64
}

// newIngestState allocates one ingest worker's rings and buffer pools.
func newIngestState(id int, cfg *Config) *ingestState {
	ig := &ingestState{
		id:           id,
		in:           newSPSC[srcUnit](cfg.QueueDepth),
		freeUnits:    newSPSC[*unitBuf](cfg.QueueDepth + 2),
		out:          make([]*spsc[shardMsg], cfg.Shards),
		freeItems:    make([]*spsc[[]item], cfg.Shards),
		epoch:        newEpoch(),
		cur:          make([][]item, cfg.Shards),
		droppedSince: make([]uint64, cfg.Shards),
	}
	// QueueDepth+2 unit buffers circulate per worker: at most QueueDepth
	// queued, one held by the worker, one being filled by the reader —
	// so the reader's free-ring pop can stall only transiently, never
	// deadlock.
	for i := 0; i < cfg.QueueDepth+2; i++ {
		ig.freeUnits.tryPush(&unitBuf{
			pkts: make([]trace.Packet, cfg.BatchSize),
			gaps: make([]int64, cfg.BatchSize),
			offs: make([]uint32, 0, cfg.BatchSize),
		})
	}
	for s := range ig.out {
		ig.out[s] = newSPSC[shardMsg](cfg.QueueDepth)
		// Item buffers mirror the unit-buffer accounting per (worker,
		// shard) edge: QueueDepth queued + 1 at the shard + 1 filling.
		ig.freeItems[s] = newSPSC[[]item](cfg.QueueDepth + 2)
		for i := 0; i < cfg.QueueDepth+1; i++ {
			ig.freeItems[s].tryPush(make([]item, 0, cfg.BatchSize))
		}
		ig.cur[s] = make([]item, 0, cfg.BatchSize)
	}
	return ig
}

// partitionRaw is DecodeBatch fused with the partition stage and
// restricted to a raw unit's selected records: one pass over the
// unit's offset list that decodes each listed record from three 8-byte
// words, derives its shard from the same registers (bit-identical to
// shardIndex — the hash words re-pack the record's bytes 12-23 and 10,
// see DecodeBatch for the layout), stamps its interarrival gap against
// the preceding stream record (read from the window, or prevUS for the
// window's first record), and appends the finished item straight into
// the per-shard batch. Unselected records are never decoded.
// Equivalence with DecodeBatch over every record, filtered by the batch
// sampler, is pinned by FuzzSelectRaw.
//
//nslint:hotpath
func (ig *ingestState) partitionRaw(u srcUnit) {
	nshards := uint32(len(ig.out))
	raw := u.raw
	noGap0 := u.buf.noGap0
	for _, off := range u.buf.offs {
		o := int(off) * trace.RecordLen
		rec := raw[o : o+trace.RecordLen]
		w0 := binary.LittleEndian.Uint64(rec[0:8])
		w1 := binary.LittleEndian.Uint64(rec[8:16])
		w2 := binary.LittleEndian.Uint64(rec[16:24])
		var s uint32
		if nshards > 1 {
			s = tupleHash(w1>>32|w2<<32, w2>>32|uint64(uint8(w1>>16))<<32) % nshards
		}
		t := int64(w0)
		prev := u.prevUS
		if off > 0 {
			prev = int64(binary.LittleEndian.Uint64(raw[o-trace.RecordLen:]))
		}
		//nslint:allow hotalloc append into a cap-pinned recycled buffer: a unit holds at most BatchSize packets and every item buffer is made with that capacity, so this never grows
		ig.cur[s] = append(ig.cur[s], item{
			pkt: trace.Packet{
				Time:     t,
				Size:     uint16(w1),
				Protocol: packet.Protocol(w1 >> 16),
				TCPFlags: uint8(w1 >> 24),
				Src:      packet.Addr{byte(w1 >> 32), byte(w1 >> 40), byte(w1 >> 48), byte(w1 >> 56)},
				Dst:      packet.Addr{byte(w2), byte(w2 >> 8), byte(w2 >> 16), byte(w2 >> 24)},
				SrcPort:  uint16(w2 >> 32),
				DstPort:  uint16(w2 >> 48),
			},
			gapUS:  t - prev,
			hasGap: off > 0 || !noGap0,
		})
	}
}

// DecodeBatch is the fused raw-path kernel: it decodes a window of raw
// NSTR record bytes into dst and, in the same batched pass, fills
// shards[i] with each packet's 5-tuple shard index (identical
// bit-for-bit to shardIndex — the two tupleHash words are loaded
// straight out of the record's wire layout, which packs the tuple in
// exactly shardIndex's byte order) and gaps[i] with its interarrival
// gap, chaining from prevUS, the timestamp of the record preceding the
// window. It returns the record count, min(len(dst),
// len(raw)/trace.RecordLen). nshards must be in [1, 256] so the
// indices fit uint8; shards and gaps must hold at least that many
// elements.
//
// Exported so the module-root benchmark suite can measure it in
// isolation (BenchmarkDecodeBatch).
//
//nslint:hotpath
func DecodeBatch(dst []trace.Packet, shards []uint8, gaps []int64, raw []byte, prevUS int64, nshards int) int {
	n := trace.DecodeRecords(dst, raw)
	pkts := dst[:n]
	sh := shards[:n]
	gp := gaps[:n]
	if nshards == 1 {
		for i := range sh {
			sh[i] = 0
		}
	} else {
		nsh := uint32(nshards)
		for i := range sh {
			rec := raw[i*trace.RecordLen : i*trace.RecordLen+trace.RecordLen]
			w1 := binary.LittleEndian.Uint64(rec[12:20])
			w2 := uint64(binary.LittleEndian.Uint32(rec[20:24])) | uint64(rec[10])<<32
			sh[i] = uint8(tupleHash(w1, w2) % nsh)
		}
	}
	prev := prevUS
	for i := range pkts {
		t := pkts[i].Time
		gp[i] = t - prev
		prev = t
	}
	return n
}

// shardIndex assigns a packet to one of n shards by hashing its
// 5-tuple (addresses, ports, protocol), so a flow's packets always
// land on one shard. The tuple packs into two words (flows.PackTuple)
// hashed by tupleHash; the raw-path kernel loads the same two words
// straight out of the record bytes, so both ingest paths agree bit for
// bit.
func shardIndex(pkt *trace.Packet, n int) int {
	if n == 1 {
		return 0
	}
	k := flows.PackTuple(pkt)
	return int(tupleHash(k[0], k[1]) % uint32(n))
}

// tupleHash mixes the two packed 5-tuple words into a well-distributed
// 32-bit value: two data-independent multiply-xor folds plus a
// murmur3-style finalizer. Three multiplies total, none serially
// dependent on the next — a byte-serial hash chain (13 dependent
// multiplies for the same tuple) dominated the fan-out stage's profile.
// Flow balance is pinned by the ingest χ² test.
func tupleHash(w1, w2 uint64) uint32 {
	const (
		m1 = 0x9E3779B97F4A7C15
		m2 = 0xC2B2AE3D27D4EB4F
		m3 = 0xFF51AFD7ED558CCD
	)
	h := (w1 ^ m1) * m2
	h ^= (w2 ^ m2) * m1
	h ^= h >> 32
	h *= m3
	h ^= h >> 32
	return uint32(h)
}

// ingestWorker drains one worker's unit ring: data units — selected
// packets only — are hashed and partitioned into per-shard item
// batches, barrier fragments are
// forwarded to every shard. A unit pushes a message ONLY to the rings
// of shards that actually receive packets from it; progress for
// everyone else is the single epoch store that follows the unit's
// pushes (epoch.advance), which is what lets a shard's
// sequence-ordered consume skip whole runs of sequence numbers
// without any per-unit cross-core message (DESIGN.md §15).
//
//nslint:hotpath
func (p *Pipeline) ingestWorker(ig *ingestState) {
	defer p.ingestWG.Done()
	p.pinIngest(ig.id)
	block := p.cfg.Policy == Block
	for {
		u, ok := ig.in.pop()
		if !ok {
			break
		}
		if u.bar != nil {
			// Barrier fragments always use blocking pushes — overload may
			// drop data, never a cut — and flush the pending drop deltas so
			// every drop is accounted to the window it happened in.
			for s := range ig.out {
				ig.out[s].push(shardMsg{seq: u.seq, bar: u.bar, dropped: ig.droppedSince[s]})
				ig.droppedSince[s] = 0
			}
			ig.epoch.advance(u.seq + 1)
			continue
		}
		buf := u.buf
		if u.raw != nil {
			// Raw unit: decode + hash + gap-stamp + partition the selected
			// records in one register-resident pass.
			ig.partitionRaw(u)
		} else {
			for i := 0; i < u.n; i++ {
				s := shardIndex(&buf.pkts[i], len(ig.out))
				//nslint:allow hotalloc append into a cap-pinned recycled buffer: a unit holds at most BatchSize packets and every item buffer is made with that capacity, so this never grows
				ig.cur[s] = append(ig.cur[s], item{
					pkt:    buf.pkts[i],
					gapUS:  buf.gaps[i],
					hasGap: !(buf.noGap0 && i == 0),
				})
			}
		}
		ig.publish(u.seq, block)
		ig.freeUnits.push(buf)
	}
	for s := range ig.out {
		ig.out[s].close()
	}
	// Exit sentinel: stored after the closes, so a shard that reads it
	// and then finds a ring empty knows the ring is fully drained. It
	// also wakes any shard parked on this worker's epoch.
	ig.epoch.advance(epochClosed)
}

// publish flushes the worker's partitioned per-shard item batches for
// one consumed unit: shards with packets in the unit get one message
// carrying the pending drop delta; shards without get nothing — the
// epoch store at the end is their (and everyone's) progress signal.
// Drop deltas that find no data message to ride are flushed by the
// next window barrier's fragments, which are always delivered.
//
//nslint:hotpath
func (ig *ingestState) publish(seq uint64, block bool) {
	for s := range ig.out {
		items := ig.cur[s]
		if len(items) == 0 {
			continue
		}
		msg := shardMsg{seq: seq, items: items, dropped: ig.droppedSince[s]}
		if block {
			ig.out[s].push(msg)
		} else if !ig.out[s].tryPush(msg) {
			ig.droppedSince[s] += uint64(len(items))
			ig.cur[s] = items[:0] // keep the buffer; the batch is shed
			continue
		}
		ig.droppedSince[s] = 0
		// Buffer accounting guarantees a free item buffer once a push
		// succeeds (QueueDepth queued + 1 at the shard + this one).
		next, _ := ig.freeItems[s].pop()
		ig.cur[s] = next[:0]
	}
	ig.epoch.advance(seq + 1)
}
