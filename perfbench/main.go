// Command perfbench is the repository's end-to-end benchmark. One run
// drives one workload against the program in-process for a fixed time,
// from one closed-loop client, checks every result against oracles of its
// own, and prints one JSON object as its last line of output:
//
//	perfbench --workload serve-local --seed 1 --seconds 15 --trace 0
//
// With --trace 0 the object carries the end-to-end metrics; with --trace 1
// it carries the per-layer breakdown (see README.md).
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// processStart is taken when the main package initializes, after the Go
// runtime and the imported packages: setup_s counts from here.
var processStart = time.Now()

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
}

// traceDir receives the trace files, inside the checkout's ignored build
// directory.
const traceDir = ".bench_build/perfbench"

// workload is one benchmark workload. setup loads the corpus, starts the
// runtime, places replicas and pins the memory tier, and is what setup_s
// times; warm then runs whatever the first measured round should not pay
// for, outside setup_s. ops lists the operations of one round, which every
// run repeats whole.
type workload interface {
	setup(ctx context.Context, b *bench) error
	warm() error
	roundLen() int
	// op runs operation i of the round and returns its latency. A returned
	// error is a failed operation; a wrong answer is reported to b.fail.
	op(i int) (time.Duration, error)
	// startTrace prepares the traced phase's accounting.
	startTrace()
	// layers adds the workload's per-layer metrics after a traced phase.
	layers(b *bench, traced *phase)
	// finish runs the checks that need the timed part to be over.
	finish(b *bench) error
	close()
}

// perLayer lists every per-layer metric with its unit, as BENCHMARK.json
// does. A traced run prints all of them; one whose layer the workload
// leaves idle reads 0 (README.md says which workload moves which).
var perLayer = [][2]string{
	{"serve.overhead_us", "us"},
	{"ops.local_exec_us", "us"},
	{"rtree.search_us", "us"},
	{"sindex.sfilter_probe_us", "us"},
	{"sindex.sfilter_skips_per_query", "count"},
	{"ops.partitions_scanned_per_query", "count"},
	{"ops.examined_per_result", "count"},
	{"serve.cache_hits", "count"},
	{"serve.cache_hit_fraction", "ratio"},
	{"serve.memtier_mb", "MB"},
	{"serve.pins_per_op", "count"},
	{"serve.shard.fanout_per_query", "count"},
	{"serve.shard.remote_us_p50", "us"},
	{"worker.kernel_us_per_fragment", "us"},
	{"serve.shard.transport_us_per_fragment", "us"},
	{"serve.shard.fallbacks", "count"},
	{"serve.shard.rpc_errors", "count"},
	{"core.load_ms_per_write", "ms"},
	{"geomio.encode_ms_per_write", "ms"},
	{"sindex.build_ms_per_write", "ms"},
	{"dfs.write_ms_per_write", "ms"},
	{"ops.pin_ms_per_partition", "ms"},
	{"job.range_ms", "ms"},
	{"job.knn_ms", "ms"},
	{"job.join_ms", "ms"},
	{"job.skyline_ms", "ms"},
	{"job.hull_ms", "ms"},
	{"job.plot_ms", "ms"},
	{"mapreduce.map_ms", "ms"},
	{"mapreduce.shuffle_ms", "ms"},
	{"mapreduce.reduce_ms", "ms"},
	{"mapreduce.commit_ms", "ms"},
	{"mapreduce.master_ms", "ms"},
	{"mapreduce.map_work_ms", "ms"},
	{"mapreduce.splits_read_fraction", "ratio"},
	{"mapreduce.shuffle_kb_per_pass", "KB"},
	{"mapreduce.retries_per_pass", "count"},
	{"mapreduce.dispatch_local_fraction", "ratio"},
	{"dfs.local_read_fraction", "ratio"},
	{"dfs.master_egress_kb_per_pass", "KB"},
	{"go.alloc_kb_per_op", "KB"},
	{"go.gc_cycles_per_kop", "count"},
	{"ref.ops_per_s", "1/s"},
	{"ref.p90_ms", "ms"},
	{"ref.p99_ms", "ms"},
	{"ref.samples", "count"},
	{"trace.untraced_p50_ms", "ms"},
	{"trace.traced_p50_ms", "ms"},
	{"trace.overhead_pct", "%"},
}

var workloads = map[string]func() workload{
	"serve-local":   func() workload { return newServeBench(engineLocal) },
	"serve-sharded": func() workload { return newServeBench(engineSharded) },
	"serve-churn":   func() workload { return newChurnBench() },
	"batch-jobs":    func() workload { return newBatchBench() },
}

func main() {
	os.Exit(run())
}

func run() int {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload name")
	flag.Int64Var(&o.seed, "seed", 1, "input seed")
	flag.IntVar(&o.seconds, "seconds", 15, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1 prints the per-layer metrics of a traced run")
	flag.Parse()
	o.trace = trace == 1
	mk, ok := workloads[o.workload]
	if !ok || o.seconds < 1 || (trace != 0 && trace != 1) {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(os.Stderr, "perfbench: want --workload one of %v, --seconds >= 1, --trace 0|1\n", names)
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	res, err := runWorkload(ctx, o, mk())
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// bench is the state one run shares with its workload.
type bench struct {
	opts options
	// tr records spans during a traced phase; nil otherwise.
	tr *tracer
	// excluded accumulates the benchmark's own work inside setup (input
	// generation, oracle checks), which setup_s leaves out.
	excluded time.Duration
	bad      int // wrong answers
	metrics  map[string]metric
}

// fail records a wrong answer; the first few are printed.
func (b *bench) fail(format string, args ...any) {
	b.bad++
	if b.bad <= 5 {
		fmt.Fprintf(os.Stderr, "perfbench: wrong answer: "+format+"\n", args...)
	}
}

// exclude runs fn and leaves its time out of setup_s.
func (b *bench) exclude(fn func()) {
	t0 := time.Now()
	fn()
	b.excluded += time.Since(t0)
}

func (b *bench) set(name, unit string, v float64) {
	b.metrics[name] = metric{Value: v, Unit: unit}
}

// phase is one measured stretch of whole rounds.
type phase struct {
	lat       []float64 // per-op latency, ms
	attempted int64
	failed    int64
	wall      time.Duration
	cpu       time.Duration
	alloc     uint64
	gcs       uint32
}

func (p *phase) completed() int64 { return p.attempted - p.failed }

// measure repeats whole rounds of w until d has passed.
func measure(ctx context.Context, w workload, d time.Duration) (*phase, error) {
	p := &phase{}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuTime()
	start := time.Now()
	for rounds := 0; rounds == 0 || time.Since(start) < d; rounds++ {
		for i := 0; i < w.roundLen(); i++ {
			if ctx.Err() != nil {
				return nil, errors.New("interrupted")
			}
			lat, err := w.op(i)
			p.attempted++
			if err != nil {
				p.failed++
				fmt.Fprintf(os.Stderr, "perfbench: op %d failed: %v\n", i, err)
				continue
			}
			p.lat = append(p.lat, ms(lat))
		}
	}
	p.wall = time.Since(start)
	p.cpu = cpuTime() - cpu0
	runtime.ReadMemStats(&ms1)
	p.alloc = ms1.TotalAlloc - ms0.TotalAlloc
	p.gcs = ms1.NumGC - ms0.NumGC
	return p, nil
}

func runWorkload(ctx context.Context, o options, w workload) (*result, error) {
	defer w.close()
	b := &bench{opts: o, metrics: map[string]metric{}}
	if err := w.setup(ctx, b); err != nil {
		return nil, fmt.Errorf("%s setup: %w", o.workload, err)
	}
	setup := time.Since(processStart) - b.excluded
	if err := w.warm(); err != nil {
		return nil, fmt.Errorf("%s warm round: %w", o.workload, err)
	}
	d := time.Duration(o.seconds) * time.Second

	res := &result{}
	if !o.trace {
		p, err := measure(ctx, w, d)
		if err != nil {
			return nil, err
		}
		b.set("setup_s", "s", setup.Seconds())
		b.set("p50_ms", "ms", quantile(p.lat, 0.5))
		b.set("cpu_ms_per_op", "ms", ms(p.cpu)/float64(max(p.completed(), 1)))
		b.set("peak_rss_mb", "MB", peakRSSMB())
		res.Attempted, res.Failed = p.attempted, p.failed
	} else {
		// First half untraced: reference figures and the baseline for the
		// tracing overhead. Second half traced: the per-layer breakdown.
		plain, err := measure(ctx, w, d/2)
		if err != nil {
			return nil, err
		}
		w.startTrace()
		b.tr = newTracer()
		traced, err := measure(ctx, w, d-d/2)
		if err != nil {
			return nil, err
		}
		tr := b.tr
		b.tr = nil
		w.layers(b, traced)
		n := float64(max(plain.completed(), 1))
		b.set("ref.ops_per_s", "1/s", float64(plain.completed())/plain.wall.Seconds())
		b.set("ref.p90_ms", "ms", quantile(plain.lat, 0.9))
		b.set("ref.p99_ms", "ms", quantile(plain.lat, 0.99))
		b.set("ref.samples", "count", float64(len(plain.lat)))
		b.set("go.alloc_kb_per_op", "KB", float64(plain.alloc)/1024/n)
		b.set("go.gc_cycles_per_kop", "count", float64(plain.gcs)*1000/n)
		p50, tp50 := quantile(plain.lat, 0.5), quantile(traced.lat, 0.5)
		b.set("trace.untraced_p50_ms", "ms", p50)
		b.set("trace.traced_p50_ms", "ms", tp50)
		b.set("trace.overhead_pct", "%", 100*(tp50-p50)/p50)
		for _, m := range perLayer {
			if _, ok := b.metrics[m[0]]; !ok {
				b.set(m[0], m[1], 0)
			}
		}
		if err := tr.write(traceDir, fmt.Sprintf("trace-%s-s%d.json", o.workload, o.seed)); err != nil {
			return nil, err
		}
		res.Attempted = plain.attempted + traced.attempted
		res.Failed = plain.failed + traced.failed
	}
	if err := w.finish(b); err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "perfbench: setup %.2fs + benchmark's own %.2fs, process %.2fs\n",
		setup.Seconds(), b.excluded.Seconds(), time.Since(processStart).Seconds())
	res.Correct = b.bad == 0
	res.Metrics = b.metrics
	return res, nil
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's maximum resident set so far (Linux reports
// ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}
