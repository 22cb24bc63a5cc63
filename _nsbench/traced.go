package main

import (
	"bytes"
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"netsample/internal/flows"
	"netsample/internal/nnstat"
	"netsample/internal/online"
	"netsample/internal/pipeline"
	"netsample/internal/trace"
)

// spanPasses is how many traced passes keep their spans for the dump;
// every traced pass still contributes to the metrics.
const spanPasses = 2

// tracedRun reports the per-layer metrics: traced and untraced passes
// alternate at GOMAXPROCS = nproc, then untraced passes repeat at
// GOMAXPROCS=1, then each layer's public functions are timed
// standalone over the workload's records.
func tracedRun(w *workload, seed uint64, seconds float64, dir, out string) (*result, error) {
	in, _, genS, err := setupInput(w, seed, dir, 1)
	if err != nil {
		return nil, err
	}
	b := &bench{w: w, in: in, dir: dir, shards: shards}
	budget := time.Duration(seconds * float64(time.Second))
	passes, err := measure(b, budget, true, 0)
	if err != nil {
		return nil, err
	}
	procs := runtime.GOMAXPROCS(1)
	cpu1, err := measure(b, budget/2, false, len(passes))
	runtime.GOMAXPROCS(procs)
	if err != nil {
		return nil, err
	}
	lay := timeLayers(w, in)

	res := newResult(append(append([]*passStats(nil), passes...), cpu1...), b)
	var (
		tracedP, plainP              []*passStats
		cutSnap, encode, appendUS    []float64
		score, replay, verify        []float64
		srcNS, gapNS, tracedPkts     int64
		selected, offered, dropped   uint64
		polls, pollErrs, pollStale   int
		activePeak                   int
		tracedPPS, plainPPS, cpu1PPS []float64
		selfMS                       = make(map[string][]float64)
		spans                        []span
	)
	for _, ps := range passes {
		selected += ps.selected
		offered += ps.offered
		dropped += ps.dropped
		polls += ps.polls
		pollErrs += ps.pollErrs
		pollStale += ps.pollStale
		activePeak = max(activePeak, ps.activePeak)
		replay = append(replay, ps.replayNS)
		verify = append(verify, ps.verifyMS)
		if !ps.traced {
			plainP = append(plainP, ps)
			plainPPS = append(plainPPS, ps.pktsPerS())
			continue
		}
		tracedP = append(tracedP, ps)
		tracedPPS = append(tracedPPS, ps.pktsPerS())
		cutSnap = append(cutSnap, ps.cutSnapMS...)
		encode = append(encode, ps.encodeUS...)
		appendUS = append(appendUS, ps.appendUS...)
		score = append(score, ps.scoreUS)
		srcNS += ps.srcNS
		gapNS += ps.gapNS
		tracedPkts += int64(ps.pkts)
		for _, k := range selfKinds {
			selfMS[k] = append(selfMS[k], msOf(ps.self[k]))
		}
		if len(tracedP) <= spanPasses {
			spans = append(spans, ps.spans...)
		}
	}
	for _, ps := range cpu1 {
		cpu1PPS = append(cpu1PPS, ps.pktsPerS())
	}
	first := passes[0]

	res.set("trace.source_ns_per_pkt", float64(srcNS)/float64(tracedPkts), "ns")
	res.set("pipeline.reader_gap_ns_per_pkt", float64(gapNS)/float64(tracedPkts), "ns")
	res.set("pipeline.decode_ns_per_pkt", lay.decodeNS, "ns")
	res.set("pipeline.selected_ratio", float64(selected)/float64(offered), "ratio")
	res.set("pipeline.cut_to_snapshot_ms_p50", quantile(cutSnap, 0.5), "ms")
	res.set("pipeline.cut_to_snapshot_ms_p99", quantile(cutSnap, 0.99), "ms")
	res.set("pipeline.windows", float64(first.windows), "count")
	res.set("pipeline.dropped", float64(dropped), "count")
	res.set("online.offer_ns_per_pkt", lay.offerNS, "ns")
	res.set("flows.add_ns_per_pkt", lay.flowsNS, "ns")
	res.set("flows.active_peak", float64(activePeak), "count")
	res.set("nnstat.topk_add_ns_per_pkt", lay.topkNS, "ns")
	res.set("core.score_us_per_window", median(score), "us")
	res.set("adaptive.k_changes", float64(first.kChanges), "count")
	res.set("collect.encode_us_p50", quantile(encode, 0.5), "us")
	res.set("collect.polls", float64(polls), "count")
	res.set("collect.poll_errors", float64(pollErrs), "count")
	res.set("collect.poll_stale_ratio", float64(pollStale)/float64(max(polls, 1)), "ratio")
	res.set("store.append_us_p50", quantile(appendUS, 0.5), "us")
	res.set("store.append_us_p99", quantile(appendUS, 0.99), "us")
	res.set("store.bytes_per_window", float64(first.storeBytes)/float64(first.windows), "B")
	res.set("store.segments", float64(first.segments), "count")
	res.set("store.replay_ns_per_record", median(replay), "ns")
	res.set("store.verify_ms", median(verify), "ms")
	res.set("traffgen.generate_s", genS[0], "s")
	durable, pollMS := pooled(plainP)
	var queryMS []float64
	for _, ps := range plainP {
		queryMS = append(queryMS, ps.queryMS...)
	}
	res.set("query_ms_p50", quantile(queryMS, 0.5), "ms")
	res.set("cut_to_durable_ms_p50", quantile(durable, 0.5), "ms")
	res.set("cut_to_durable_ms_p99", quantile(durable, 0.99), "ms")
	res.set("poll_rtt_ms_p50", quantile(pollMS, 0.5), "ms")
	res.set("poll_rtt_ms_p99", quantile(pollMS, 0.99), "ms")
	res.set("gen_lag_ms_max", msOf(maxLag(passes)), "ms")
	res.set("fail_ratio", float64(res.Failed)/float64(max(res.Attempted, 1)), "ratio")
	res.set("trace_overhead_ratio", median(tracedPPS)/median(plainPPS), "ratio")
	res.set("scaling.cpu2_over_cpu1", median(plainPPS)/median(cpu1PPS), "ratio")
	for _, k := range selfKinds {
		res.set("self."+k+"_ms", median(selfMS[k]), "ms")
	}
	res.notes = append(res.notes, fmt.Sprintf(
		"passes: traced=%d untraced=%d cpu1=%d; pkts_per_s traced=%.6g untraced=%.6g cpu1=%.6g",
		len(tracedP), len(plainP), len(cpu1), median(tracedPPS), median(plainPPS), median(cpu1PPS)))
	res.notes = append(res.notes, fmt.Sprintf("samples: cut_to_snapshot=%d encode=%d append=%d",
		len(cutSnap), len(encode), len(appendUS)))

	path := filepath.Join(out, fmt.Sprintf("spans-%s-seed%d.jsonl", w.name, seed))
	if err := writeSpans(path, spans); err != nil {
		return nil, err
	}
	res.notes = append(res.notes, fmt.Sprintf("spans: %d written to %s", len(spans), path))
	return res, nil
}

// layerTimes holds the standalone per-packet layer costs.
type layerTimes struct {
	decodeNS, offerNS, flowsNS, topkNS float64
}

// sink keeps standalone results live so the compiler cannot drop the
// timed calls.
var sink int

// timeLayers times each layer's public functions over the workload's
// records on one goroutine. The stream's selection follows the
// workload's k (the adaptive workload uses its start k, 50); flows and
// Top-K see only selected packets and are flushed at every window, as
// a shard does.
func timeLayers(w *workload, in *input) layerTimes {
	recs := in.records
	k := w.k
	if k == 0 {
		k = 50
	}
	var lt layerTimes
	var decode, offer []float64
	for r := 0; r < 3; r++ {
		decode = append(decode, timeDecode(recs))
		offer = append(offer, timeOffer(recs, k))
	}
	lt.decodeNS, lt.offerNS = median(decode), median(offer)
	lt.flowsNS, lt.topkNS = timeAggregates(recs, k, w.window.Microseconds())
	return lt
}

// timeDecode returns ns per record of pipeline.DecodeBatch over recs in
// pipeline-sized raw units. The records are NSTR-encoded a chunk at a
// time, outside the timed section.
func timeDecode(recs []trace.Packet) float64 {
	const chunk = 1 << 16
	bs := pipeline.DefaultBatchSize
	var buf bytes.Buffer
	dst := make([]trace.Packet, bs)
	sh := make([]uint8, bs)
	gaps := make([]int64, bs)
	var total int64
	var prev int64
	for off := 0; off < len(recs); off += chunk {
		end := min(off+chunk, len(recs))
		buf.Reset()
		// Writing to a bytes.Buffer cannot fail.
		_ = trace.Write(&buf, &trace.Trace{Packets: recs[off:end]})
		raw := buf.Bytes()[trace.HeaderLen:]
		start := now()
		for i := 0; i < end-off; i += bs {
			j := min(i+bs, end-off)
			n := pipeline.DecodeBatch(dst, sh, gaps, raw[i*trace.RecordLen:j*trace.RecordLen], prev, shards)
			prev = dst[n-1].Time
		}
		total += now() - start
	}
	sink += int(prev)
	return float64(total) / float64(len(recs))
}

// timeOffer returns ns per packet of online.Systematic.Offer.
func timeOffer(recs []trace.Packet, k int) float64 {
	s, err := online.NewSystematic(k, 0)
	if err != nil {
		return 0
	}
	sel := 0
	start := now()
	for i := range recs {
		if s.Offer(recs[i].Time) {
			sel++
		}
	}
	d := now() - start
	sink += sel
	return float64(d) / float64(len(recs))
}

// timeAggregates returns ns per selected packet of flows.Table.Add and
// nnstat.TopK.AddBytes, each window's selected packets fed as a batch.
func timeAggregates(recs []trace.Packet, k int, windowUS int64) (flowsNS, topkNS float64) {
	tab, err := flows.NewTable((15 * time.Second).Microseconds())
	if err != nil {
		return 0, 0
	}
	top, err := nnstat.NewTopK(pipeline.DefaultTopKCapacity)
	if err != nil {
		return 0, 0
	}
	s, err := online.NewSystematic(k, 0)
	if err != nil {
		return 0, 0
	}
	var (
		sel      []trace.Packet
		fNS, tNS int64
		n        int
		key      [13]byte
		winEnd   = recs[0].Time + windowUS
	)
	flush := func() {
		t0 := now()
		for i := range sel {
			tab.Add(sel[i])
		}
		t1 := now()
		for i := range sel {
			p := &sel[i]
			copy(key[0:4], p.Src[:])
			copy(key[4:8], p.Dst[:])
			key[8], key[9] = byte(p.SrcPort), byte(p.SrcPort>>8)
			key[10], key[11] = byte(p.DstPort), byte(p.DstPort>>8)
			key[12] = byte(p.Protocol)
			top.AddBytes(key[:], 1)
		}
		t2 := now()
		fNS += t1 - t0
		tNS += t2 - t1
		n += len(sel)
		sink += len(tab.Flush())
		top.Reset()
		sel = sel[:0]
	}
	for _, p := range recs {
		for p.Time >= winEnd {
			flush()
			winEnd += windowUS
		}
		if s.Offer(p.Time) {
			sel = append(sel, p)
		}
	}
	flush()
	if n == 0 {
		return 0, 0
	}
	return float64(fNS) / float64(n), float64(tNS) / float64(n)
}
