package main

import (
	"context"
	"fmt"
	"hash/maphash"
	"math"
	"math/rand"
	"sort"
	"time"

	"spatialhadoop/internal/cg"
	"spatialhadoop/internal/core"
	"spatialhadoop/internal/datagen"
	"spatialhadoop/internal/geom"
	"spatialhadoop/internal/geomio"
	"spatialhadoop/internal/mapreduce"
	"spatialhadoop/internal/ops"
	"spatialhadoop/internal/sindex"
)

// Batch sizes: the 200k-point corpus of the serving workloads plus two
// jittered-grid tessellations for the join.
const (
	batchPoints = 200_000
	tessA       = 30
	tessB       = 25
	plotSide    = 256
)

// jobKinds is the fixed job list of one pass, in order.
var jobKinds = []string{"range", "knn", "join", "skyline", "hull", "plot"}

type batchBench struct {
	b     *bench
	data  *dataset
	rect  geom.Rect
	q     geom.Point
	k     int
	a, bb []geom.Region
	// recA and recB map a region's record text to its index in a or bb.
	recA, recB map[string]int
	sys        *core.System
	cl         *cluster
	hseed      maphash.Seed
	// want holds each job's verified answer hash, once the first pass
	// has checked it against the oracle.
	want map[string]uint64

	acc batchAcc
}

// batchAcc accumulates the traced phase's per-pass job breakdown.
type batchAcc struct {
	passes                                         int
	jobMS                                          map[string][]float64
	mapMS, shuffleMS, reduceMS, commitMS, masterMS []float64
	mapWorkMS                                      []float64
	splits, splitsTotal, shuffleBytes, retries     float64
	before                                         map[string]int64
}

func newBatchBench() *batchBench { return &batchBench{} }

func toRegions(pgs []geom.Polygon) []geom.Region {
	out := make([]geom.Region, len(pgs))
	for i, pg := range pgs {
		out[i] = geom.RegionOf(pg)
	}
	return out
}

func (w *batchBench) setup(ctx context.Context, b *bench) error {
	w.b = b
	w.hseed = maphash.MakeSeed()
	w.want = map[string]uint64{}
	b.exclude(func() {
		rng := rand.New(rand.NewSource(b.opts.seed))
		w.data = &dataset{pts: corpus(b.opts.seed, batchPoints)}
		// A wide window and a kNN query (k = 100) around random input
		// points.
		w.rect = quarterWindow(w.data.pts, w.data.pts[rng.Intn(len(w.data.pts))])
		p := w.data.pts[rng.Intn(len(w.data.pts))]
		w.q = geom.Point{X: math.Round(p.X), Y: math.Round(p.Y)}
		w.k = 100
		w.a = toRegions(datagen.Tessellation(tessA, tessA, area, b.opts.seed+1))
		w.bb = toRegions(datagen.Tessellation(tessB, tessB, area, b.opts.seed+2))
		w.recA, w.recB = recordIndex(w.a), recordIndex(w.bb)
	})
	w.sys = newSystem(b.opts.seed)
	if _, err := w.sys.LoadPoints("pts", w.data.pts, sindex.STRPlus); err != nil {
		return err
	}
	if _, err := w.sys.LoadRegions("a", w.a, sindex.Grid); err != nil {
		return err
	}
	if _, err := w.sys.LoadRegions("b", w.bb, sindex.Grid); err != nil {
		return err
	}
	cl, err := startCluster(ctx, w.sys, false)
	if err != nil {
		return err
	}
	w.cl = cl
	// Warm pass: places the replicas and checks every job's answer.
	_, err = w.op(0)
	return err
}

// warm has nothing left to do: setup's warm pass is one whole round.
func (w *batchBench) warm() error { return nil }

// quarterWindow returns the smallest whole-coordinate square around c,
// clipped to the space, that holds a quarter of the points. The range
// job's cost follows its answer size; fixing that share keeps a seed from
// moving it.
func quarterWindow(pts []geom.Point, c geom.Point) geom.Rect {
	cx, cy := math.Round(c.X), math.Round(c.Y)
	square := func(half float64) geom.Rect {
		return geom.Rect{MinX: math.Max(cx-half, 0), MinY: math.Max(cy-half, 0),
			MaxX: math.Min(cx+half, 1e6), MaxY: math.Min(cy+half, 1e6)}
	}
	half := float64(sort.Search(1_000_000, func(h int) bool {
		r, n := square(float64(h)), 0
		for _, p := range pts {
			if inRect(p, r) {
				n++
			}
		}
		return n >= len(pts)/4
	}))
	return square(half)
}

func recordIndex(rs []geom.Region) map[string]int {
	m := make(map[string]int, len(rs))
	for i, r := range rs {
		m[geomio.EncodeRegion(r)] = i
	}
	return m
}

func (w *batchBench) roundLen() int { return 1 }

// op runs one pass over the job list; its latency is the sum of the job
// calls, without the answer hashes and checks between them.
func (w *batchBench) op(int) (time.Duration, error) {
	tr := w.b.tr
	root := tr.begin("op.pass")
	defer tr.end(root)
	var lat time.Duration
	var reps []*mapreduce.Report
	for _, kind := range jobKinds {
		sp := tr.begin("job." + kind)
		t0 := time.Now()
		rep, check, err := w.runJob(kind)
		d := time.Since(t0)
		tr.end(sp)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", kind, err)
		}
		lat += d
		w.verify(kind, check)
		if tr != nil {
			if rep.Total > d {
				w.b.fail("%s: Report.Total %v exceeds the span around the call, %v", kind, rep.Total, d)
			}
			w.acc.jobMS[kind] = append(w.acc.jobMS[kind], ms(d))
			reps = append(reps, rep)
		}
	}
	if tr != nil {
		w.tracePass(reps)
	}
	return lat, nil
}

// answer is one job's result: its hash, taken after the call's latency,
// and the oracle check to run the first time it is seen.
type answer struct {
	hash  func() uint64
	check func() error
}

func (w *batchBench) runJob(kind string) (*mapreduce.Report, answer, error) {
	pts := w.data.pts
	switch kind {
	case "range":
		got, rep, err := ops.RangeQueryPointsTo(w.sys, "pts", w.rect, "bench.range.out")
		return rep, answer{func() uint64 { return setHash(got) }, func() error { return checkRange(pts, w.rect, got) }}, err
	case "knn":
		got, rep, err := ops.KNNTo(w.sys, "pts", w.q, w.k, "bench.knn")
		return rep, answer{func() uint64 { return setHash(got) }, func() error { return checkKNNSet(pts, w.data.memberSet(), w.q, w.k, got) }}, err
	case "join":
		got, rep, err := ops.SpatialJoinIndexedTo(w.sys, "a", "b", "bench.join.out")
		hash := func() uint64 {
			h := mix64(uint64(len(got)))
			for _, p := range got {
				h += maphash.String(w.hseed, p.Left+"\x00"+p.Right)
			}
			return h
		}
		return rep, answer{hash, func() error { return w.checkJoin(got) }}, err
	case "skyline":
		got, rep, err := cg.SkylineSHadoop(w.sys, "pts")
		return rep, answer{func() uint64 { return setHash(got) }, func() error { return checkSet(got, skylineOracle(pts)) }}, err
	case "hull":
		got, rep, err := cg.ConvexHullSHadoop(w.sys, "pts")
		return rep, answer{func() uint64 { return setHash(got) }, func() error { return checkSet(got, hullOracle(pts)) }}, err
	case "plot":
		img, rep, err := ops.Plot(w.sys, "pts", ops.PlotConfig{Width: plotSide, Height: plotSide, Extent: area, Out: "bench.plot.out"})
		if err != nil {
			return nil, answer{}, err
		}
		return rep, answer{func() uint64 { return maphash.Bytes(w.hseed, img.Pix) }, func() error {
			want := plotOracle(pts, area, plotSide, plotSide)
			for y := 0; y < plotSide; y++ {
				for x := 0; x < plotSide; x++ {
					if got := img.Pix[y*img.Stride+x] != 0; got != want[y*plotSide+x] {
						return fmt.Errorf("pixel (%d,%d) non-empty=%v, want %v", x, y, got, want[y*plotSide+x])
					}
				}
			}
			return nil
		}}, nil
	}
	return nil, answer{}, fmt.Errorf("unknown job %q", kind)
}

// verify checks a job's first answer against its oracle and every later
// one against the first's hash.
func (w *batchBench) verify(kind string, a answer) {
	if want, ok := w.want[kind]; ok {
		if a.hash() != want {
			w.b.fail("%s: answer differs from its verified first answer", kind)
		}
		return
	}
	w.b.exclude(func() {
		if err := a.check(); err != nil {
			w.b.fail("%s: %v", kind, err)
		}
		w.want[kind] = a.hash()
	})
}

// checkJoin compares the join's pairs with the pairwise test over the two
// tessellations' bounding boxes, each pair exactly once.
func (w *batchBench) checkJoin(got []ops.JoinPair) error {
	boxes := func(rs []geom.Region) []geom.Rect {
		out := make([]geom.Rect, len(rs))
		for i, r := range rs {
			out[i] = r.Bounds()
		}
		return out
	}
	want := map[[2]int]bool{}
	for _, p := range joinOracle(boxes(w.a), boxes(w.bb)) {
		want[p] = true
	}
	seen := map[[2]int]bool{}
	for _, p := range got {
		i, ok1 := w.recA[p.Left]
		j, ok2 := w.recB[p.Right]
		if !ok1 || !ok2 {
			return fmt.Errorf("pair (%.40s, %.40s) is not two input records", p.Left, p.Right)
		}
		key := [2]int{i, j}
		if seen[key] {
			return fmt.Errorf("pair (%d, %d) reported twice", i, j)
		}
		if !want[key] {
			return fmt.Errorf("pair (%d, %d) does not intersect", i, j)
		}
		seen[key] = true
	}
	if len(seen) != len(want) {
		return fmt.Errorf("%d pairs, want %d", len(seen), len(want))
	}
	return nil
}

// Registry counters the traced phase reports as deltas.
var batchCounters = []string{
	mapreduce.MetricDispatchLocal, mapreduce.MetricDispatchNonlocal,
	mapreduce.MetricDFSLocalReads, mapreduce.MetricDFSRemoteReads, mapreduce.MetricMasterEgress,
}

func (w *batchBench) startTrace() {
	snap := w.sys.Metrics().Snapshot()
	w.acc = batchAcc{jobMS: map[string][]float64{}, before: map[string]int64{}}
	for _, c := range batchCounters {
		w.acc.before[c] = snap.Counters[c]
	}
}

// tracePass folds one pass's job reports into per-pass phase sums.
func (w *batchBench) tracePass(reps []*mapreduce.Report) {
	a := &w.acc
	a.passes++
	var mp, sh, rd, cm, total, work time.Duration
	for _, r := range reps {
		mp += r.MapTime
		sh += r.ShuffleTime
		rd += r.ReduceTime
		cm += r.CommitTime
		total += r.Total
		work += r.MapWorkSum
		a.splits += float64(r.Splits)
		a.splitsTotal += float64(r.SplitsTotal)
		a.shuffleBytes += float64(r.Counters[mapreduce.CounterShuffleBytes])
		a.retries += float64(r.Counters[mapreduce.CounterTaskRetries])
	}
	a.mapMS = append(a.mapMS, ms(mp))
	a.shuffleMS = append(a.shuffleMS, ms(sh))
	a.reduceMS = append(a.reduceMS, ms(rd))
	a.commitMS = append(a.commitMS, ms(cm))
	a.masterMS = append(a.masterMS, ms(total-mp-sh-rd-cm))
	a.mapWorkMS = append(a.mapWorkMS, ms(work))
}

func (w *batchBench) layers(b *bench, _ *phase) {
	a := &w.acc
	for _, kind := range jobKinds {
		b.set("job."+kind+"_ms", "ms", quantile(a.jobMS[kind], 0.5))
	}
	b.set("mapreduce.map_ms", "ms", quantile(a.mapMS, 0.5))
	b.set("mapreduce.shuffle_ms", "ms", quantile(a.shuffleMS, 0.5))
	b.set("mapreduce.reduce_ms", "ms", quantile(a.reduceMS, 0.5))
	b.set("mapreduce.commit_ms", "ms", quantile(a.commitMS, 0.5))
	b.set("mapreduce.master_ms", "ms", quantile(a.masterMS, 0.5))
	b.set("mapreduce.map_work_ms", "ms", quantile(a.mapWorkMS, 0.5))
	passes := float64(max(a.passes, 1))
	b.set("mapreduce.splits_read_fraction", "ratio", ratio(a.splits, a.splitsTotal))
	b.set("mapreduce.shuffle_kb_per_pass", "KB", a.shuffleBytes/1024/passes)
	b.set("mapreduce.retries_per_pass", "count", a.retries/passes)
	snap := w.sys.Metrics().Snapshot()
	delta := func(c string) float64 { return float64(snap.Counters[c] - a.before[c]) }
	b.set("mapreduce.dispatch_local_fraction", "ratio",
		ratio(delta(mapreduce.MetricDispatchLocal), delta(mapreduce.MetricDispatchLocal)+delta(mapreduce.MetricDispatchNonlocal)))
	b.set("dfs.local_read_fraction", "ratio",
		ratio(delta(mapreduce.MetricDFSLocalReads), delta(mapreduce.MetricDFSLocalReads)+delta(mapreduce.MetricDFSRemoteReads)))
	b.set("dfs.master_egress_kb_per_pass", "KB", delta(mapreduce.MetricMasterEgress)/1024/passes)
}

func (w *batchBench) finish(*bench) error { return nil }

func (w *batchBench) close() {
	if w.cl != nil {
		w.cl.stop()
	}
}
