package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"netsample/internal/bins"
	"netsample/internal/core"
	"netsample/internal/online"
	"netsample/internal/pipeline"
	"netsample/internal/trace"
	"netsample/internal/traffgen"
)

// Pipeline topology shared by every workload: GOMAXPROCS = nproc, two
// shards behind one ingest worker, lossless backpressure.
const (
	shards        = 2
	ingestWorkers = 1
	node          = "nsbench"
)

// t3Laps is how many copies of the calibrated hour the t3 trace file
// holds: 4 laps ≈ 6.1 M records, so one pass runs long enough (≈0.2 s
// at 30 M pkts/s) that per-pass fixed costs stay small, while the
// reference population nsd keeps in memory stays near 150 MB.
const t3Laps = 4

// pacedSpeedup is the open-loop replay speed: the calibrated hour's
// ≈424 pkts/s becomes ≈170 k pkts/s, 400 one-second windows per wall
// second.
const pacedSpeedup = 400

// queryFromUS and queryToUS bound the post-run query, relative to the
// first packet: a fixed 15-minute virtual range (the paper's NOC poll
// interval) that covers the middle third of the hour, where the ddos
// flood runs.
const (
	queryFromUS = int64(20 * time.Minute / time.Microsecond)
	queryToUS   = int64(35*time.Minute/time.Microsecond) - 1
)

// workload is one named input and pipeline configuration.
type workload struct {
	name string
	// k is the fixed systematic granularity; 0 selects adaptive control
	// with the nsd -adaptive defaults and start k 50.
	k      int
	window time.Duration
	// paced replays on a schedule at pacedSpeedup (open loop); otherwise
	// the reader pulls as fast as backpressure allows (closed loop).
	paced bool
	// queries is the number of post-run store queries per pass.
	queries int
	// setup builds the input from the seed, writing files under dir.
	setup func(seed uint64, dir string) (*input, error)
}

var workloads = []*workload{
	{name: "t3-k50-raw", k: 50, window: time.Minute, queries: 5, setup: setupT3},
	{name: "ddos-k1-gen", k: 1, window: time.Minute, queries: 15, setup: setupDDoS},
	{name: "paced-1s-adaptive", k: 0, window: time.Second, paced: true, queries: 40, setup: setupPaced},
}

func lookupWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// input is a workload's generated stream plus everything derived from
// its population once, before any pass.
type input struct {
	n       int    // packets per pass
	path    string // NSTR file for the raw path; "" for in-memory replay
	replay  *trace.Trace
	firstUS int64
	lastUS  int64
	// records is one decoded copy of the stream's packet content (the
	// hour, or the scenario) for the standalone layer timings.
	records  []trace.Packet
	sizeEval *core.Evaluator
	iatEval  *core.Evaluator
	// sizeHist and iatHist are the population's histograms under the
	// pipeline's bin schemes (every packet's size, every gap after the
	// first packet).
	sizeHist []float64
	iatHist  []float64
	genNS    int64 // traffgen call
	setupNS  int64 // the whole input set-up
}

// maxWindows bounds how many windows one pass can cut.
func (in *input) maxWindows(w *workload) int {
	return int((in.lastUS-in.firstUS)/w.window.Microseconds()) + 2
}

// config returns the pipeline configuration, as cmd/nsd builds it for
// this workload's flags.
func (w *workload) config(in *input) pipeline.Config {
	cfg := pipeline.Config{
		Shards:        shards,
		IngestWorkers: ingestWorkers,
		QueueDepth:    pipeline.DefaultQueueDepth,
		BatchSize:     pipeline.DefaultBatchSize,
		Policy:        pipeline.Block,
		TopKReport:    pipeline.DefaultTopKReport,
		FlowTimeoutUS: (15 * time.Second).Microseconds(),
		WindowUS:      w.window.Microseconds(),
		SizeEval:      in.sizeEval,
		IatEval:       in.iatEval,
	}
	if w.k > 0 {
		k := w.k
		cfg.NewSampler = func(int) (online.Sampler, error) { return online.NewSystematic(k, 0) }
	} else {
		cfg.Adaptive = &pipeline.AdaptiveConfig{MinK: 1, MaxK: 4096, StartK: 50, TargetPhi: 0.25}
	}
	return cfg
}

// generateHour returns the calibrated NSFNET hour under seed.
func generateHour(seed uint64) (*trace.Trace, int64, error) {
	cfg := traffgen.NSFNETHour()
	cfg.Seed = seed
	start := now()
	tr, err := traffgen.Generate(cfg)
	return tr, now() - start, err
}

// setupT3 tiles the calibrated hour t3Laps times into one NSTR file.
// Each lap is shifted one clock tick past the previous lap's last
// record, so timestamps never run backwards across the seam.
func setupT3(seed uint64, dir string) (*input, error) {
	t0 := now()
	hour, genNS, err := generateHour(seed)
	if err != nil {
		return nil, err
	}
	path := filepath.Join(dir, "t3.nstr")
	lap := hour.Packets[len(hour.Packets)-1].Time + hour.ClockUS
	if err := writeNSTR(path, hour, t3Laps, lap); err != nil {
		return nil, err
	}
	in, err := fromFile(path, hour.Packets)
	if err != nil {
		return nil, err
	}
	in.genNS, in.setupNS = genNS, now()-t0
	return in, nil
}

// setupPaced writes the calibrated hour as one NSTR file.
func setupPaced(seed uint64, dir string) (*input, error) {
	t0 := now()
	hour, genNS, err := generateHour(seed)
	if err != nil {
		return nil, err
	}
	path := filepath.Join(dir, "hour.nstr")
	if err := writeNSTR(path, hour, 1, 0); err != nil {
		return nil, err
	}
	in, err := fromFile(path, hour.Packets)
	if err != nil {
		return nil, err
	}
	in.genNS, in.setupNS = genNS, now()-t0
	return in, nil
}

// setupDDoS generates the ddos preset hour, replayed from memory.
func setupDDoS(seed uint64, _ string) (*input, error) {
	t0 := now()
	sc, err := traffgen.PresetScenario("ddos", seed, time.Hour)
	if err != nil {
		return nil, err
	}
	tr, err := traffgen.GenerateScenario(sc)
	if err != nil {
		return nil, err
	}
	genNS := now() - t0
	in := &input{n: tr.Len(), replay: tr, records: tr.Packets}
	if err := in.derive(tr); err != nil {
		return nil, err
	}
	in.genNS, in.setupNS = genNS, now()-t0
	return in, nil
}

// fromFile maps an NSTR file and derives the reference population from
// the mapping, as nsd -in does.
func fromFile(path string, records []trace.Packet) (*input, error) {
	mr, err := trace.OpenMap(path)
	if err != nil {
		return nil, err
	}
	defer mr.Close()
	pop, err := mr.Trace()
	if err != nil {
		return nil, err
	}
	in := &input{n: pop.Len(), path: path, records: records}
	return in, in.derive(pop)
}

// derive builds the reference evaluators and population histograms.
func (in *input) derive(pop *trace.Trace) error {
	if pop.Len() == 0 {
		return fmt.Errorf("empty input")
	}
	var err error
	if in.sizeEval, err = core.NewEvaluator(pop, core.TargetSize, bins.PacketSize()); err != nil {
		return fmt.Errorf("size evaluator: %w", err)
	}
	if in.iatEval, err = core.NewEvaluator(pop, core.TargetInterarrival, bins.Interarrival()); err != nil {
		return fmt.Errorf("interarrival evaluator: %w", err)
	}
	size, iat := bins.PacketSize(), bins.Interarrival()
	in.sizeHist = make([]float64, size.NumBins())
	in.iatHist = make([]float64, iat.NumBins())
	for i, p := range pop.Packets {
		in.sizeHist[size.Index(float64(p.Size))]++
		if i > 0 {
			in.iatHist[iat.Index(float64(p.Time-pop.Packets[i-1].Time))]++
		}
	}
	in.firstUS = pop.Packets[0].Time
	in.lastUS = pop.Packets[len(pop.Packets)-1].Time
	return nil
}

// writeNSTR writes laps copies of tr to path, lap i shifted by i*lapUS.
// The file is left unsynced; see syncInput.
func writeNSTR(path string, tr *trace.Trace, laps int, lapUS int64) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	sw, err := trace.NewStreamWriter(f, tr.Start, tr.ClockUS)
	for l := 0; l < laps && err == nil; l++ {
		shift := int64(l) * lapUS
		for _, p := range tr.Packets {
			p.Time += shift
			if err = sw.Write(p); err != nil {
				break
			}
		}
	}
	if err == nil {
		err = sw.Close()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("write %s: %w", path, err)
	}
	return nil
}

// syncInput flushes the input file, if any, to disk. Left dirty, it would
// be written back while the passes fsync their stores, and on a
// journaling filesystem those fsyncs wait for it. It runs once, after
// the timed set-ups, so that the benchmark's own writes neither load the
// disk repeatedly nor enter setup_s.
func (in *input) syncInput() error {
	if in.path == "" {
		return nil
	}
	f, err := os.OpenFile(in.path, os.O_RDWR, 0)
	if err != nil {
		return err
	}
	err = f.Sync()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("sync %s: %w", in.path, err)
	}
	return nil
}
