// Command nsbench is netsample's end-to-end benchmark. It runs the same
// wiring as cmd/nsd, in-process — packet source → pipeline.Pipeline →
// Config.OnSnapshot → Snapshot.Wire → store.Writer.AppendSnapshot, with
// a pipeline.Exporter behind a collect.Agent that one collect.Collector
// polls over loopback — and ends each pass with the store.Reader query
// path nocquery uses. It checks the outputs against invariants and
// prints every metric by name with its unit; the last line of standard
// output is one JSON object with the keys correct, attempted, failed
// and metrics.
//
// Usage (from the repository root; run.sh builds and runs it):
//
//	bash _nsbench/run.sh --workload t3-k50-raw --seed 1 --seconds 10 --trace 0
//
// --trace 0 reports the end-to-end metrics. --trace 1 is the traced
// run: it alternates traced and untraced passes, records spans from
// the benchmark's own code around each layer call, repeats the
// workload at GOMAXPROCS=1, times each layer's public functions
// standalone, reports the per-layer metrics, and writes the spans to
// the output directory. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"time"
)

// setupRepeats is how many times an untraced run builds its input; it
// reports the median so one slow set-up does not move setup_s.
const setupRepeats = 3

func main() { os.Exit(run()) }

func run() int {
	var (
		wname   = flag.String("workload", "", "workload: t3-k50-raw, ddos-k1-gen or paced-1s-adaptive")
		seed    = flag.Uint64("seed", 1, "input generator seed")
		seconds = flag.Float64("seconds", 10, "measurement time per run")
		traced  = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		out     = flag.String("out", filepath.Join(".bench_build", "nsbench"), "directory for the work files and span dumps")
	)
	flag.Parse()
	w, err := lookupWorkload(*wname)
	if err != nil {
		fmt.Fprintln(os.Stderr, "nsbench:", err)
		return 2
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "nsbench:", err)
		return 1
	}
	dir, err := os.MkdirTemp(*out, "work-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "nsbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)

	host := fingerprint()
	hj, _ := json.Marshal(host)
	fmt.Printf("host %s\n", hj)
	fmt.Printf("workload %s seed %d seconds %g trace %d\n", w.name, *seed, *seconds, *traced)

	var res *result
	if *traced == 1 {
		res, err = tracedRun(w, *seed, *seconds, dir, *out)
	} else {
		res, err = untracedRun(w, *seed, *seconds, dir)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "nsbench:", err)
		return 1
	}
	res.print()
	if res.Failed > 0 {
		return 1
	}
	return 0
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// notes are printed before the JSON line, not inside it.
	notes []string
}

func (r *result) set(name string, v float64, unit string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

func (r *result) print() {
	for _, n := range r.notes {
		fmt.Println(n)
	}
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.Metrics[n]
		fmt.Printf("%-34s %14.6g %s\n", n, m.Value, m.Unit)
	}
	fmt.Printf("failed %d of %d operations\n", r.Failed, r.Attempted)
	j, err := json.Marshal(r)
	if err != nil {
		fmt.Fprintln(os.Stderr, "nsbench:", err)
		return
	}
	fmt.Println(string(j))
}

// hostInfo fingerprints the machine a result was taken on.
type hostInfo struct {
	Go         string `json:"go"`
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Governor   string `json:"governor,omitempty"`
	OS         string `json:"os"`
}

func fingerprint() hostInfo {
	h := hostInfo{Go: runtime.Version(), NumCPU: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), OS: runtime.GOOS + "/" + runtime.GOARCH}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if b, err := os.ReadFile("/sys/devices/system/cpu/cpu0/cpufreq/scaling_governor"); err == nil {
		h.Governor = strings.TrimSpace(string(b))
	}
	return h
}

// heapSampler tracks the peak live Go heap while it runs: the heap the
// garbage collector marked live, read every few milliseconds. Live heap
// rather than heap in use keeps the figure independent of where GC
// cycles happen to fall; each pass ends with a forced GC, so the
// footprint at the end of every Run is always among the readings.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	peak uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			if s[0].Value.Kind() == metrics.KindUint64 {
				h.peak = max(h.peak, s[0].Value.Uint64())
			}
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// finish stops the sampler and returns the peak in bytes.
func (h *heapSampler) finish() uint64 {
	close(h.stop)
	<-h.done
	return h.peak
}

// setupInput builds the workload's input repeats times and returns the
// last build with every build's set-up and generation times, in seconds.
func setupInput(w *workload, seed uint64, dir string, repeats int) (*input, []float64, []float64, error) {
	var in *input
	var setupS, genS []float64
	for i := 0; i < repeats; i++ {
		in = nil
		runtime.GC()
		var err error
		if in, err = w.setup(seed, dir); err != nil {
			return nil, nil, nil, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, float64(in.setupNS)/1e9)
		genS = append(genS, float64(in.genNS)/1e9)
	}
	if err := in.syncInput(); err != nil {
		return nil, nil, nil, err
	}
	// Start the measurement from a clean heap, so set-up garbage does
	// not count toward heap_peak_mb.
	runtime.GC()
	return in, setupS, genS, nil
}

// measure runs passes until the time budget is spent: it stops before a
// pass that would end more than half a pass past the budget, and runs
// at least one pass (in a traced phase, which alternates untraced and
// traced passes, at least one of each).
func measure(b *bench, budget time.Duration, traced bool, first int) ([]*passStats, error) {
	var passes []*passStats
	start := now()
	for i := 0; ; i++ {
		passStart := now()
		ps, err := b.runPass(first+i, traced && i%2 == 1)
		if err != nil {
			return nil, err
		}
		passes = append(passes, ps)
		end := now()
		enough := !traced || len(passes) >= 2
		if enough && end-start+(end-passStart)/2 >= int64(budget) {
			return passes, nil
		}
	}
}

// untracedRun measures the end-to-end metrics.
func untracedRun(w *workload, seed uint64, seconds float64, dir string) (*result, error) {
	in, setupS, _, err := setupInput(w, seed, dir, setupRepeats)
	if err != nil {
		return nil, err
	}
	b := &bench{w: w, in: in, dir: dir, shards: shards}
	heap := startHeapSampler()
	passes, err := measure(b, time.Duration(seconds*float64(time.Second)), false, 0)
	peak := heap.finish()
	if err != nil {
		return nil, err
	}
	res := newResult(passes, b)
	var pps, passSetup, queryMS []float64
	for _, ps := range passes {
		pps = append(pps, ps.pktsPerS())
		passSetup = append(passSetup, float64(ps.setupNS)/1e9)
		queryMS = append(queryMS, ps.queryMS...)
	}
	durable, pollMS := pooled(passes)
	res.set("pkts_per_s", median(pps), "pkt/s")
	res.set("heap_peak_mb", float64(peak)/1e6, "MB")
	res.set("setup_s", median(setupS)+median(passSetup), "s")
	// The latencies are printed for reading and reported as per-layer
	// metrics of the traced run, but carry no bound: each one includes
	// store fsyncs or scheduler waits, which on a shared host move between
	// runs by more than the largest bound (see README.md).
	res.notes = append(res.notes,
		fmt.Sprintf("samples: passes=%d cut_to_durable=%d poll_rtt=%d query=%d setup=%d",
			len(passes), len(durable), len(pollMS), len(queryMS), len(setupS)),
		fmt.Sprintf("query_ms_p50 %.4f ms", quantile(queryMS, 0.5)),
		fmt.Sprintf("cut_to_durable_ms_p50 %.4f ms", quantile(durable, 0.5)),
		fmt.Sprintf("cut_to_durable_ms_p99 %.4f ms", quantile(durable, 0.99)),
		fmt.Sprintf("poll_rtt_ms_p50 %.4f ms", quantile(pollMS, 0.5)),
		fmt.Sprintf("poll_rtt_ms_p99 %.4f ms", quantile(pollMS, 0.99)),
		fmt.Sprintf("fail_ratio %.4g ratio", float64(res.Failed)/float64(max(res.Attempted, 1))))
	if w.paced {
		res.notes = append(res.notes, fmt.Sprintf("gen_lag_ms_max %.4f ms", msOf(maxLag(passes))))
	}
	return res, nil
}

// pooled returns the cut-to-durable and poll round-trip samples of all
// passes.
func pooled(passes []*passStats) (durable, pollMS []float64) {
	for _, ps := range passes {
		durable = append(durable, ps.durableMS...)
		pollMS = append(pollMS, ps.pollMS...)
	}
	return durable, pollMS
}

// maxLag returns how late the open-loop generator ran at worst, in ns.
func maxLag(passes []*passStats) int64 {
	var lag int64
	for _, ps := range passes {
		lag = max(lag, ps.lagMaxNS)
	}
	return lag
}

// newResult totals the operation counts of a run's passes.
func newResult(passes []*passStats, b *bench) *result {
	res := &result{Metrics: make(map[string]metric)}
	for _, ps := range passes {
		res.Attempted += ps.ops
		res.Failed += ps.failed
	}
	res.Correct = res.Failed == 0 && len(b.failures) == 0
	return res
}
