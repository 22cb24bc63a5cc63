package pipeline

import (
	"io"
	"runtime"
	"testing"

	"netsample/internal/dist"
	"netsample/internal/online"
	"netsample/internal/packet"
	"netsample/internal/trace"
)

// cycleSource synthesizes n packets cycling through a small fixed flow
// set with monotonically increasing timestamps — steady-state traffic
// with no new-flow allocations after warm-up.
type cycleSource struct {
	n   int
	pos int
}

func (c *cycleSource) Next() (trace.Packet, error) {
	if c.pos >= c.n {
		return trace.Packet{}, io.EOF
	}
	i := c.pos
	c.pos++
	return trace.Packet{
		Time:    int64(i) * 500,
		Size:    uint16(40 + (i%8)*64),
		Src:     packet.Addr{10, 0, 0, byte(i % 8)},
		Dst:     packet.Addr{10, 0, 1, byte(i % 4)},
		SrcPort: uint16(1024 + i%8),
		DstPort: 80,
	}, nil
}

// churnSource synthesizes a flood like the ddos scenario's: n packets,
// each on a 5-tuple not seen for churnPeriod packets. With a flow
// timeout shorter than churnPeriod × 500 µs every packet opens a new
// flow (expiring its tuple's previous one), and with more tuples than
// the heavy-hitter sketch holds every packet evicts a counter.
type churnSource struct {
	n   int
	pos int
}

const churnPeriod = 8192

func (c *churnSource) Next() (trace.Packet, error) {
	if c.pos >= c.n {
		return trace.Packet{}, io.EOF
	}
	i := c.pos
	c.pos++
	j := i % churnPeriod
	return trace.Packet{
		Time:     int64(i) * 500,
		Size:     40,
		Protocol: packet.ProtoTCP,
		Src:      packet.Addr{byte(j >> 8), byte(j), byte(j * 7), 1},
		Dst:      packet.Addr{10, 0, 0, 1},
		SrcPort:  uint16(1024 + j),
		DstPort:  80,
	}, nil
}

// TestPipelineHotPathAllocs pins the 0-steady-state-allocs/packet claim
// of the read→select→ingest→shard hot path, for every sampling method:
// a long run's total heap allocation count, measured end to end, stays
// bounded by the fixed startup cost (queues, flow entries, goroutines,
// per-window barriers and snapshots) — far below one allocation per
// hundred packets. The churn case selects every packet of a flood in
// which each packet opens a new flow, expires an old one and evicts a
// sketch counter: flow-table and sketch storage is reused across
// expiries, evictions and windows, so it too stays far below that.
func TestPipelineHotPathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are perturbed under -race")
	}
	const n = 200_000
	for _, method := range append(append([]string(nil), online.Methods...), "adaptive", "churn") {
		t.Run(method, func(t *testing.T) {
			cfg := Config{
				Shards:        1,
				FlowTimeoutUS: 1 << 60, // flows never expire: no per-packet flow churn
				WindowUS:      10_000_000,
			}
			var src Source = &cycleSource{n: n}
			switch method {
			case "adaptive":
				cfg.Adaptive = &AdaptiveConfig{MinK: 1, MaxK: 64, StartK: 10, TargetPhi: 0.25}
			case "churn":
				cfg.FlowTimeoutUS = 1_000_000 // < churnPeriod × 500 µs: every packet expires its tuple's flow
				cfg.NewSampler = func(int) (online.Sampler, error) { return online.NewSystematic(1, 0) }
				src = &churnSource{n: n}
			default:
				s, err := online.NewMethod(method, 10, 5_000, dist.NewRNG(1))
				if err != nil {
					t.Fatal(err)
				}
				cfg.NewSampler = func(int) (online.Sampler, error) { return s, nil }
			}
			p, err := New(cfg)
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			if err := p.Run(src); err != nil {
				t.Fatalf("Run: %v", err)
			}
			runtime.ReadMemStats(&after)
			allocs := after.Mallocs - before.Mallocs
			if allocs > n/100 {
				t.Errorf("pipeline run of %d packets made %d allocations (> %d): hot path is allocating",
					n, allocs, n/100)
			}
			t.Logf("%d packets, %d allocations", n, allocs)
			var processed, selected, flowsSeen uint64
			for _, snap := range p.Snapshots() {
				processed += snap.Processed
				selected += snap.Selected
				flowsSeen += snap.Flows.Flows
			}
			if processed != n || selected == 0 {
				t.Fatalf("run processed %d of %d packets, selected %d", processed, n, selected)
			}
			if method == "churn" && flowsSeen != n {
				t.Fatalf("churn run saw %d flows, want one per packet (%d)", flowsSeen, n)
			}
		})
	}
}
