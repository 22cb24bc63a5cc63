package pipeline

import (
	"bytes"
	"sort"
	"testing"

	"netsample/internal/core"
	"netsample/internal/packet"
	"netsample/internal/trace"
)

// selectRawSeed encodes 300 packets of cycling flows, sizes and gaps
// as NSTR records for the seed corpus.
func selectRawSeed(f *testing.F) []byte {
	f.Helper()
	pkts := make([]trace.Packet, 300)
	for i := range pkts {
		pkts[i] = trace.Packet{
			Time:     int64(i*i%977) + int64(i)*400,
			Size:     uint16(40 + i*37%1460),
			Protocol: packet.Protocol(6 + i%3*11),
			Src:      packet.Addr{10, 0, byte(i % 7), byte(i % 13)},
			Dst:      packet.Addr{192, 168, byte(i % 5), 1},
			SrcPort:  uint16(1024 + i%29),
			DstPort:  uint16(80 + i%3),
		}
	}
	var buf bytes.Buffer
	if err := trace.Write(&buf, &trace.Trace{Packets: pkts}); err != nil {
		f.Fatal(err)
	}
	return buf.Bytes()[trace.HeaderLen:]
}

// FuzzSelectRaw cross-checks the raw path's offset-list kernel
// (partitionRaw) against the reference: DecodeBatch over every record,
// filtered by the batch systematic sampler. The stream is cut into
// source windows of the fuzzed length and each window into units at the
// fuzzed split points, exactly the freedom the reader has; each unit
// lists the offsets of its selected records and carries the timestamp
// of the record before it. Every shard must receive the selected
// packets in stream order with the reference's packet, gap, hasGap
// and shard.
func FuzzSelectRaw(f *testing.F) {
	raw := selectRawSeed(f)
	f.Add(raw, uint8(1), uint16(256), []byte{}, uint8(0))
	f.Add(raw, uint8(50), uint16(37), []byte{3, 200, 77}, uint8(3))
	f.Add(raw[:10*trace.RecordLen], uint8(3), uint16(1), []byte{0, 255}, uint8(255))
	f.Add(raw, uint8(7), uint16(1000), []byte{128, 129, 130}, uint8(1))
	f.Fuzz(func(t *testing.T, data []byte, k uint8, window uint16, splits []byte, shards uint8) {
		n := len(data) / trace.RecordLen
		if n == 0 || k == 0 || window == 0 {
			return
		}
		data = data[:n*trace.RecordLen]
		nshards := int(shards)%8 + 1

		// Reference: decode everything, then filter.
		pkts := make([]trace.Packet, n)
		sh := make([]uint8, n)
		gaps := make([]int64, n)
		first := rawTime(data, 0)
		DecodeBatch(pkts, sh, gaps, data, first, nshards)
		idx, err := core.SystematicCount{K: int(k)}.Select(&trace.Trace{Packets: pkts}, nil)
		if err != nil {
			t.Fatal(err)
		}
		want := make([][]item, nshards)
		for _, i := range idx {
			want[sh[i]] = append(want[sh[i]], item{pkt: pkts[i], gapUS: gaps[i], hasGap: i > 0})
		}

		// Kernel: source windows of `window` records, units cut at the
		// split points, only units holding a selection sent.
		cuts := []int{0, n}
		for c := int(window); c < n; c += int(window) {
			cuts = append(cuts, c)
		}
		for _, b := range splits {
			cuts = append(cuts, int(b)*n/256)
		}
		sort.Ints(cuts)
		ig := newIngestState(0, &Config{Shards: nshards, QueueDepth: 1, BatchSize: n})
		got := make([][]item, nshards)
		sel := 0
		for c := 0; c+1 < len(cuts); c++ {
			from, to := cuts[c], cuts[c+1]
			buf := &unitBuf{noGap0: from == 0}
			for ; sel < len(idx) && idx[sel] < to; sel++ {
				buf.offs = append(buf.offs, uint32(idx[sel]-from))
			}
			if len(buf.offs) == 0 {
				continue
			}
			prevUS := first
			if from > 0 {
				prevUS = rawTime(data, from-1)
			}
			ig.partitionRaw(srcUnit{buf: buf, raw: data[from*trace.RecordLen : to*trace.RecordLen], prevUS: prevUS})
			for s := range ig.cur {
				got[s] = append(got[s], ig.cur[s]...)
				ig.cur[s] = ig.cur[s][:0]
			}
		}
		for s := range want {
			if len(got[s]) != len(want[s]) {
				t.Fatalf("shard %d got %d items, want %d", s, len(got[s]), len(want[s]))
			}
			for i := range want[s] {
				if got[s][i] != want[s][i] {
					t.Fatalf("shard %d item %d = %+v, want %+v", s, i, got[s][i], want[s][i])
				}
			}
		}
	})
}
