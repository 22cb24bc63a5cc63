package flows

import (
	"bytes"
	"testing"

	"netsample/internal/core"
	"netsample/internal/dist"
	"netsample/internal/packet"
	"netsample/internal/trace"
	"netsample/internal/traffgen"
)

func pkt(tUS int64, srcPort uint16, size uint16) trace.Packet {
	return trace.Packet{
		Time: tUS, Size: size, Protocol: packet.ProtoTCP,
		Src: packet.Addr{10, 0, 0, 1}, Dst: packet.Addr{20, 0, 0, 1},
		SrcPort: srcPort, DstPort: 23,
	}
}

func TestNewTableValidation(t *testing.T) {
	if _, err := NewTable(0); err != ErrBadTimeout {
		t.Error("zero timeout accepted")
	}
}

func TestSingleFlowAggregation(t *testing.T) {
	tab, err := NewTable(1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	tab.Add(pkt(0, 1024, 100))
	tab.Add(pkt(500_000, 1024, 200))
	tab.Add(pkt(900_000, 1024, 300))
	fs := tab.Flush()
	if len(fs) != 1 {
		t.Fatalf("flows = %d", len(fs))
	}
	f := fs[0]
	if f.Packets != 3 || f.Bytes != 600 || f.FirstUS != 0 || f.LastUS != 900_000 {
		t.Fatalf("flow = %+v", f)
	}
	if f.Duration() != 900_000 {
		t.Fatalf("duration = %d", f.Duration())
	}
}

func TestIdleTimeoutSplitsFlow(t *testing.T) {
	tab, err := NewTable(100_000)
	if err != nil {
		t.Fatal(err)
	}
	tab.Add(pkt(0, 1024, 100))
	tab.Add(pkt(50_000, 1024, 100))
	tab.Add(pkt(300_000, 1024, 100)) // 250 ms gap > 100 ms timeout
	fs := tab.Flush()
	if len(fs) != 2 {
		t.Fatalf("flows = %d, want split", len(fs))
	}
	if fs[0].Packets != 2 || fs[1].Packets != 1 {
		t.Fatalf("split wrong: %+v", fs)
	}
}

func TestDistinctKeysDistinctFlows(t *testing.T) {
	tab, err := NewTable(1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	tab.Add(pkt(0, 1024, 100))
	tab.Add(pkt(1, 1025, 100))
	udp := pkt(2, 1024, 100)
	udp.Protocol = packet.ProtoUDP
	tab.Add(udp)
	if tab.ActiveCount() != 3 {
		t.Fatalf("active = %d", tab.ActiveCount())
	}
	fs := tab.Flush()
	if len(fs) != 3 {
		t.Fatalf("flows = %d", len(fs))
	}
	if tab.ActiveCount() != 0 {
		t.Fatal("flush did not reset")
	}
}

func TestDecomposeDeterministicOrder(t *testing.T) {
	tr, err := traffgen.Generate(traffgen.SmallTrace(3003))
	if err != nil {
		t.Fatal(err)
	}
	a, err := Decompose(tr, 2_000_000)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Decompose(tr, 2_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("order not deterministic at %d", i)
		}
	}
	// Packet conservation.
	var pkts int64
	for _, f := range a {
		pkts += f.Packets
	}
	if pkts != int64(tr.Len()) {
		t.Fatalf("flow packets %d != trace %d", pkts, tr.Len())
	}
}

func TestSummarize(t *testing.T) {
	fs := []Flow{
		{Packets: 1, Bytes: 40},
		{Packets: 9, Bytes: 5000},
	}
	s := Summarize(fs)
	if s.Flows != 2 || s.MeanPackets != 5 || s.MeanBytes != 2520 || s.SingletonShare != 0.5 {
		t.Fatalf("summary = %+v", s)
	}
	if z := Summarize(nil); z.Flows != 0 {
		t.Fatalf("empty summary = %+v", z)
	}
}

func TestSamplingBiasesFlowView(t *testing.T) {
	// The classic sampled-flow bias: a 1-in-k packet sample detects far
	// fewer flows than exist, and the flows it does detect look larger
	// on average (per captured packet scaling) — small flows vanish.
	tr, err := traffgen.Generate(traffgen.SmallTrace(3004))
	if err != nil {
		t.Fatal(err)
	}
	const timeout = 2_000_000
	full, err := Decompose(tr, timeout)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := core.SystematicCount{K: 50}.Select(tr, nil)
	if err != nil {
		t.Fatal(err)
	}
	sub := &trace.Trace{Start: tr.Start, ClockUS: tr.ClockUS}
	for _, i := range idx {
		sub.Packets = append(sub.Packets, tr.Packets[i])
	}
	sampled, err := Decompose(sub, timeout*50) // scale timeout with thinning
	if err != nil {
		t.Fatal(err)
	}
	if !(len(sampled) < len(full)/2) {
		t.Fatalf("sampled flows %d not far below true %d", len(sampled), len(full))
	}
	fullSum := Summarize(full)
	sampSum := Summarize(sampled)
	// Detected flows are biased toward the large: estimated true
	// packets-per-flow of detected flows (sampled count × k) exceeds the
	// population mean.
	if !(sampSum.MeanPackets*50 > fullSum.MeanPackets) {
		t.Fatalf("no large-flow bias: sampled %v×50 vs true %v",
			sampSum.MeanPackets, fullSum.MeanPackets)
	}
}

// TestCountFlows checks the integer totals against Summarize on the
// same records.
func TestCountFlows(t *testing.T) {
	fs := []Flow{
		{Packets: 1, Bytes: 40},
		{Packets: 10, Bytes: 5520},
		{Packets: 1, Bytes: 552},
	}
	got := CountFlows(fs)
	want := Counts{Flows: 3, Packets: 12, Bytes: 6112, Singletons: 2}
	if got != want {
		t.Errorf("CountFlows = %+v, want %+v", got, want)
	}
	if (CountFlows(nil) != Counts{}) {
		t.Error("CountFlows(nil) not zero")
	}
	// Counts merge by field addition: two halves sum to the whole.
	left, right := CountFlows(fs[:1]), CountFlows(fs[1:])
	sum := left
	sum.Add(right)
	if sum != want {
		t.Errorf("split counts sum to %+v, want %+v", sum, want)
	}
}

// churnStream is a time-ordered stream over keys tuples whose per-key
// gaps straddle timeout, so flows both continue and expire (reusing
// their slot) within one window.
func churnStream(seed uint64, n, keys int, timeout int64) []trace.Packet {
	r := dist.NewRNG(seed)
	out := make([]trace.Packet, n)
	var now int64
	for i := range out {
		now += r.Int64N(timeout / 4)
		k := r.IntN(keys)
		out[i] = trace.Packet{
			Time: now, Size: uint16(40 + r.IntN(1460)), Protocol: packet.ProtoUDP,
			Src: packet.Addr{10, 0, byte(k >> 8), byte(k)}, Dst: packet.Addr{20, 0, 0, byte(k % 3)},
			SrcPort: uint16(k), DstPort: 53,
		}
	}
	return out
}

// TestFlushCountsMatchesFlush pins the count-only cut to the sorted
// flush: on the same input, window after window of one reused table,
// FlushCounts equals CountFlows(Flush()) — through idle-timeout expiry
// and slot reuse.
func TestFlushCountsMatchesFlush(t *testing.T) {
	const timeout = 10_000
	const keys = 16
	pkts := churnStream(5, 40_000, keys, timeout)
	counted, _ := NewTable(timeout)
	flushed, _ := NewTable(timeout)
	var expired, continued bool
	for w := 0; w < 8; w++ {
		win := pkts[w*5000 : (w+1)*5000]
		for _, p := range win {
			counted.Add(p)
			flushed.Add(p)
		}
		if counted.ActiveCount() != flushed.ActiveCount() {
			t.Fatalf("window %d: active %d vs %d", w, counted.ActiveCount(), flushed.ActiveCount())
		}
		fs := flushed.Flush()
		got, want := counted.FlushCounts(), CountFlows(fs)
		if got != want {
			t.Fatalf("window %d: FlushCounts = %+v, CountFlows(Flush()) = %+v", w, got, want)
		}
		if want.Packets != uint64(len(win)) {
			t.Fatalf("window %d: %d packets in flows, %d offered", w, want.Packets, len(win))
		}
		expired = expired || want.Flows > keys // some key's flow expired and reopened
		continued = continued || want.Packets > want.Flows
		if counted.ActiveCount() != 0 || flushed.ActiveCount() != 0 {
			t.Fatalf("window %d: flush left active flows", w)
		}
	}
	if !expired || !continued {
		t.Fatalf("stream expired flows: %v, continued flows: %v; the test needs both", expired, continued)
	}
}

// TestTableReuseStartsEmpty checks a flushed table carries nothing into
// the next window: a packet of a flow open at the flush, well within
// the idle timeout, opens a fresh flow.
func TestTableReuseStartsEmpty(t *testing.T) {
	tab, err := NewTable(1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	tab.Add(pkt(0, 1024, 100))
	tab.Add(pkt(10, 1025, 100))
	tab.Add(pkt(20, 1024, 100))
	if c := tab.FlushCounts(); c != (Counts{Flows: 2, Packets: 3, Bytes: 300, Singletons: 1}) {
		t.Fatalf("first window counts %+v", c)
	}
	tab.Add(pkt(30, 1024, 200))
	fs := tab.Flush()
	if len(fs) != 1 || fs[0].Packets != 1 || fs[0].Bytes != 200 || fs[0].FirstUS != 30 {
		t.Fatalf("second window flows %+v, want one fresh flow", fs)
	}
}

// TestTupleSpelling pins the packed tuple to the 13-byte heavy-hitter
// key spelling (source, destination, little-endian ports, protocol) and
// Compare to the byte order of that spelling.
func TestTupleSpelling(t *testing.T) {
	r := dist.NewRNG(9)
	var prev [TupleLen]byte
	var prevT Tuple
	for i := 0; i < 2000; i++ {
		p := trace.Packet{
			Src:     packet.Addr{byte(r.IntN(3)), byte(r.IntN(256)), byte(r.IntN(256)), byte(r.IntN(256))},
			Dst:     packet.Addr{byte(r.IntN(3)), byte(r.IntN(256)), byte(r.IntN(256)), byte(r.IntN(256))},
			SrcPort: uint16(r.IntN(3)), DstPort: uint16(r.IntN(65536)), Protocol: packet.Protocol(r.IntN(256)),
		}
		k := PackTuple(&p)
		want := [TupleLen]byte{
			p.Src[0], p.Src[1], p.Src[2], p.Src[3], p.Dst[0], p.Dst[1], p.Dst[2], p.Dst[3],
			byte(p.SrcPort), byte(p.SrcPort >> 8), byte(p.DstPort), byte(p.DstPort >> 8), byte(p.Protocol),
		}
		got := k.Bytes()
		if got != want {
			t.Fatalf("Bytes = %v, want %v", got, want)
		}
		if c, w := k.Compare(prevT), bytes.Compare(got[:], prev[:]); c != w {
			t.Fatalf("Compare(%v, %v) = %d, byte order says %d", got, prev, c, w)
		}
		if k.Compare(k) != 0 {
			t.Fatal("tuple does not compare equal to itself")
		}
		prev, prevT = got, k
	}
}
