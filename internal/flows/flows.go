// Package flows decomposes packet traces into transport flows — the
// unit behind the paper's closing remark that sampled characterization
// of per-pair traffic is hard "because many traffic pairs generate
// small amounts of traffic during typical sampling intervals". A flow
// here is the classic 5-tuple aggregated with an idle timeout, the
// definition NetFlow later operationalized; the ext-flows experiment
// uses this package to quantify how packet sampling biases flow-level
// views (small flows vanish, detected mean flow size inflates).
package flows

import (
	"encoding/binary"
	"errors"
	"math/bits"
	"sort"

	"netsample/internal/packet"
	"netsample/internal/trace"
)

// Key identifies a unidirectional transport flow.
type Key struct {
	Src, Dst         packet.Addr
	SrcPort, DstPort uint16
	Proto            packet.Protocol
}

// Flow is an aggregated flow record.
type Flow struct {
	Key     Key
	Packets int64
	Bytes   int64
	FirstUS int64
	LastUS  int64
}

// Duration returns the flow's active time in µs.
func (f Flow) Duration() int64 { return f.LastUS - f.FirstUS }

// Tuple is a flow key packed into two words with no padding bytes, so
// it hashes and compares as plain memory: the first word holds Src in
// its low and Dst in its high four bytes (each address's first byte
// lowest), the second SrcPort, DstPort<<16 and Proto<<32. It is the
// packing the pipeline's shard hash reads, both from decoded packets
// and straight out of raw NSTR records.
type Tuple [2]uint64

// PackTuple packs p's 5-tuple.
func PackTuple(p *trace.Packet) Tuple {
	return Tuple{
		uint64(p.Src[0]) | uint64(p.Src[1])<<8 | uint64(p.Src[2])<<16 | uint64(p.Src[3])<<24 |
			uint64(p.Dst[0])<<32 | uint64(p.Dst[1])<<40 | uint64(p.Dst[2])<<48 | uint64(p.Dst[3])<<56,
		uint64(p.SrcPort) | uint64(p.DstPort)<<16 | uint64(uint8(p.Protocol))<<32,
	}
}

// TupleLen is the length of a tuple's byte spelling.
const TupleLen = 13

// Bytes spells the tuple as 13 bytes: Src, Dst, SrcPort and DstPort
// little-endian, Proto — the little-endian bytes of the first word
// followed by the low five of the second. This is the flow key format
// of the pipeline's heavy-hitter reports.
func (t Tuple) Bytes() [TupleLen]byte {
	var b [TupleLen]byte
	binary.LittleEndian.PutUint64(b[0:8], t[0])
	binary.LittleEndian.PutUint32(b[8:12], uint32(t[1]))
	b[12] = byte(t[1] >> 32)
	return b
}

// Compare orders tuples as their Bytes spellings order: -1, 0 or +1.
func (t Tuple) Compare(u Tuple) int {
	for i := range t {
		a, b := bits.ReverseBytes64(t[i]), bits.ReverseBytes64(u[i])
		if a != b {
			if a < b {
				return -1
			}
			return 1
		}
	}
	return 0
}

// Table is a streaming flow table with idle-timeout expiry. Packets
// must be offered in time order; flows idle longer than the timeout are
// closed, and a new packet with the same key opens a fresh flow (the
// NetFlow active/idle semantics, idle only).
//
// Active flows live by value in a slab; the index maps each flow's
// packed tuple to its slab slot. A new flow for an expired key reuses
// the expired flow's slot, and a flush empties the slab, the index and
// the closed list without freeing them, so a table reused window after
// window stops allocating once it has held its largest window.
type Table struct {
	timeoutUS int64
	index     map[Tuple]int
	slab      []Flow
	closed    []Flow
}

// ErrBadTimeout reports a non-positive idle timeout.
var ErrBadTimeout = errors.New("flows: idle timeout must be positive")

// NewTable builds a flow table with the given idle timeout.
func NewTable(timeoutUS int64) (*Table, error) {
	if timeoutUS < 1 {
		return nil, ErrBadTimeout
	}
	return &Table{timeoutUS: timeoutUS, index: make(map[Tuple]int)}, nil
}

// Add offers one packet. Expiry is checked lazily per key: a packet
// arriving more than the timeout after its flow's last packet closes
// the old flow and starts a new one.
//
//nslint:hotpath
func (t *Table) Add(p trace.Packet) { t.AddTuple(PackTuple(&p), &p) }

// AddTuple is Add for a caller that has already packed p's tuple k
// (k must equal PackTuple(p)).
func (t *Table) AddTuple(k Tuple, p *trace.Packet) {
	i, ok := t.index[k]
	if !ok {
		//nslint:allow hotalloc per-new-flow, not per-packet: the index keeps its storage across flushes, so it grows only until it has held the table's largest window
		t.index[k] = len(t.slab)
		//nslint:allow hotalloc per-new-flow, not per-packet: the slab keeps its storage across flushes, so it grows only until it has held the table's largest window
		t.slab = append(t.slab, newFlow(p))
		return
	}
	f := &t.slab[i]
	if p.Time-f.LastUS > t.timeoutUS {
		//nslint:allow hotalloc per-expiry, not per-packet: the closed list keeps its storage across flushes, so it grows only until it has held the table's largest window
		t.closed = append(t.closed, *f)
		*f = newFlow(p) // the expired flow's slot holds its successor
		return
	}
	f.Packets++
	f.Bytes += int64(p.Size)
	f.LastUS = p.Time
}

func newFlow(p *trace.Packet) Flow {
	return Flow{
		Key:     Key{Src: p.Src, Dst: p.Dst, SrcPort: p.SrcPort, DstPort: p.DstPort, Proto: p.Protocol},
		Packets: 1, Bytes: int64(p.Size), FirstUS: p.Time, LastUS: p.Time,
	}
}

// ActiveCount returns the number of currently open flows.
func (t *Table) ActiveCount() int { return len(t.slab) }

// Flush closes all active flows and returns every flow seen, ordered by
// first-packet time (ties by key bytes for determinism). The table is
// reset.
func (t *Table) Flush() []Flow {
	out := make([]Flow, 0, len(t.closed)+len(t.slab))
	out = append(append(out, t.closed...), t.slab...)
	t.reset()
	sort.Slice(out, func(i, j int) bool {
		if out[i].FirstUS != out[j].FirstUS {
			return out[i].FirstUS < out[j].FirstUS
		}
		return lessKey(out[i].Key, out[j].Key)
	})
	return out
}

// FlushCounts closes all active flows and returns their totals,
// CountFlows(Flush()) without the sort and the copy. The table is
// reset.
func (t *Table) FlushCounts() Counts {
	c := CountFlows(t.closed)
	c.Add(CountFlows(t.slab))
	t.reset()
	return c
}

// reset empties the table, keeping its storage.
func (t *Table) reset() {
	clear(t.index)
	t.slab = t.slab[:0]
	t.closed = t.closed[:0]
}

func lessKey(a, b Key) bool {
	if a.Src != b.Src {
		return a.Src.Uint32() < b.Src.Uint32()
	}
	if a.Dst != b.Dst {
		return a.Dst.Uint32() < b.Dst.Uint32()
	}
	if a.SrcPort != b.SrcPort {
		return a.SrcPort < b.SrcPort
	}
	if a.DstPort != b.DstPort {
		return a.DstPort < b.DstPort
	}
	return a.Proto < b.Proto
}

// Decompose splits a whole trace into flows with the given idle timeout.
func Decompose(tr *trace.Trace, timeoutUS int64) ([]Flow, error) {
	t, err := NewTable(timeoutUS)
	if err != nil {
		return nil, err
	}
	for _, p := range tr.Packets {
		t.Add(p)
	}
	return t.Flush(), nil
}

// Counts are integer flow-level totals, the wire-friendly counterpart
// of Summary: exact sums that merge across shards or windows by plain
// field addition.
type Counts struct {
	// Flows is the number of flow records.
	Flows uint64
	// Packets and Bytes total the records' packet and byte counts.
	Packets uint64
	Bytes   uint64
	// Singletons counts one-packet flows — the population packet
	// sampling misses most readily.
	Singletons uint64
}

// Add sums d into c field by field, the merge across shards, windows
// and nodes.
func (c *Counts) Add(d Counts) {
	c.Flows += d.Flows
	c.Packets += d.Packets
	c.Bytes += d.Bytes
	c.Singletons += d.Singletons
}

// CountFlows totals a flow record set.
func CountFlows(fs []Flow) Counts {
	var c Counts
	c.Flows = uint64(len(fs))
	for _, f := range fs {
		c.Packets += uint64(f.Packets)
		c.Bytes += uint64(f.Bytes)
		if f.Packets == 1 {
			c.Singletons++
		}
	}
	return c
}

// Summary aggregates flow-level statistics.
type Summary struct {
	Flows       int
	MeanPackets float64
	MeanBytes   float64
	// SingletonShare is the fraction of flows with exactly one packet —
	// the population packet sampling misses most readily.
	SingletonShare float64
}

// Summarize computes flow statistics.
func Summarize(fs []Flow) Summary {
	s := Summary{Flows: len(fs)}
	if len(fs) == 0 {
		return s
	}
	var pkts, bytes, singles int64
	for _, f := range fs {
		pkts += f.Packets
		bytes += f.Bytes
		if f.Packets == 1 {
			singles++
		}
	}
	s.MeanPackets = float64(pkts) / float64(len(fs))
	s.MeanBytes = float64(bytes) / float64(len(fs))
	s.SingletonShare = float64(singles) / float64(len(fs))
	return s
}
