package pipeline

import (
	"testing"
	"time"

	"netsample/internal/flows"
	"netsample/internal/nnstat"
	"netsample/internal/online"
	"netsample/internal/traffgen"
)

// TestShardCutMatchesStringSketch pins the shard's packed-tuple state to
// the string-keyed form it replaced: on a spoofed flood, every window
// cut reports the same heavy hitters (keys, counts, error bounds) as a
// TopK fed the 13-byte key spelling through AddBytes, and the same flow
// totals as CountFlows over a sorted Flush.
func TestShardCutMatchesStringSketch(t *testing.T) {
	sc, err := traffgen.PresetScenario("ddos", 3, 4*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := traffgen.GenerateScenario(sc)
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(Config{
		Shards:     1,
		TopKReport: 25,
		NewSampler: func(int) (online.Sampler, error) { return online.NewSystematic(1, 0) },
	})
	if err != nil {
		t.Fatal(err)
	}
	st, err := newShardState(0, &p.cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := nnstat.NewTopK(p.cfg.TopKCapacity)
	if err != nil {
		t.Fatal(err)
	}
	refFlows, err := flows.NewTable(p.cfg.FlowTimeoutUS)
	if err != nil {
		t.Fatal(err)
	}
	check := func(w int) {
		t.Helper()
		active := refFlows.ActiveCount()
		part := st.cut()
		if want := flows.CountFlows(refFlows.Flush()); part.flows != want || part.activeFlows != active {
			t.Fatalf("window %d: flows %+v active %d, want %+v active %d", w, part.flows, part.activeFlows, want, active)
		}
		want := ref.Top(p.cfg.TopKReport)
		if len(part.topk) != len(want) {
			t.Fatalf("window %d: %d heavy hitters, want %d", w, len(part.topk), len(want))
		}
		for i := range want {
			if part.topk[i] != want[i] {
				t.Fatalf("window %d entry %d: %+v, want %+v", w, i, part.topk[i], want[i])
			}
		}
		ref.Reset()
	}
	const windowUS = 30_000_000
	end, w := tr.Packets[0].Time+windowUS, 0
	for i := range tr.Packets {
		pk := tr.Packets[i]
		if pk.Time >= end {
			check(w)
			end += windowUS
			w++
		}
		st.process(&item{pkt: pk})
		refFlows.Add(pk)
		key := [13]byte{
			pk.Src[0], pk.Src[1], pk.Src[2], pk.Src[3], pk.Dst[0], pk.Dst[1], pk.Dst[2], pk.Dst[3],
			byte(pk.SrcPort), byte(pk.SrcPort >> 8), byte(pk.DstPort), byte(pk.DstPort >> 8), byte(pk.Protocol),
		}
		ref.AddBytes(key[:], 1)
	}
	check(w)
	if w < 5 {
		t.Fatalf("only %d windows cut", w+1)
	}
}
