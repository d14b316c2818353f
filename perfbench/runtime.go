package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"strconv"
	"time"

	"spatialhadoop/internal/core"
	"spatialhadoop/internal/datagen"
	"spatialhadoop/internal/geom"
	"spatialhadoop/internal/mapreduce"
	"spatialhadoop/internal/serve"
	"spatialhadoop/internal/worker"
)

// area is the generation space of every corpus.
var area = geom.NewRect(0, 0, 1_000_000, 1_000_000)

// blockSize cuts the 200k-point corpus into about 30 STR+ partitions.
const blockSize = 256 << 10

func newSystem(seed int64) *core.System {
	return core.New(core.Config{Workers: 2, BlockSize: blockSize, Seed: seed})
}

// cluster is a master with two in-process workers at replication 2, one
// task slot each.
type cluster struct {
	m  *mapreduce.Master
	ws []*worker.Worker
}

func startCluster(ctx context.Context, sys *core.System, serveTasks bool) (*cluster, error) {
	m, err := sys.Cluster().StartMaster(mapreduce.MasterOptions{Metrics: sys.Metrics(), Replication: 2})
	if err != nil {
		return nil, err
	}
	c := &cluster{m: m}
	for i := 0; i < 2; i++ {
		w, err := worker.Start(worker.Config{Master: m.Addr(), Tasks: 1, FakePID: 9100 + i, ServeTasks: serveTasks})
		if err != nil {
			c.stop()
			return nil, err
		}
		c.ws = append(c.ws, w)
	}
	for m.LiveWorkers() < len(c.ws) {
		if ctx.Err() != nil {
			c.stop()
			return nil, errors.New("interrupted")
		}
		time.Sleep(time.Millisecond)
	}
	return c, nil
}

// stop stops the workers, waits for their loops, removes their spill and
// replica directories, and stops the master.
func (c *cluster) stop() {
	for _, w := range c.ws {
		w.Stop()
		w.Wait()
		os.RemoveAll(w.Dir())
	}
	c.ws = nil
	c.m.Stop()
}

// httpServer runs a serve.Server on a loopback port.
type httpServer struct {
	srv  *serve.Server
	base string
	done chan struct{}
}

func startServer(sys *core.System, cfg serve.Config) (*httpServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	h := &httpServer{srv: serve.New(sys, cfg), base: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		if err := h.srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "perfbench: serve:", err)
		}
	}()
	return h, nil
}

func (h *httpServer) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	h.srv.Shutdown(ctx)
	<-h.done
}

// query is one range or kNN request of a workload's pool.
type query struct {
	knn  bool
	file string
	rect geom.Rect
	q    geom.Point
	k    int
	path string
}

// genQueries draws n queries over file: a knnShare of them kNN around an
// input point with k from 10 to 50, the rest range windows covering 1-5%
// of the space with aspect ratio 1:2 to 2:1, in random order. Counts are
// exact and k, window areas and aspects are stratified over their ranges,
// so a seed moves where queries fall but not the mix; a sampled mix would
// shift the median latency from seed to seed. Coordinates are whole.
func genQueries(rng *rand.Rand, file string, pts []geom.Point, n int, knnShare float64) []query {
	nk := int(math.Round(float64(n) * knnShare))
	nr := n - nk
	strat := func(i, n int) float64 { return (float64(i) + rng.Float64()) / float64(n) }
	aspects := rng.Perm(nr)
	out := make([]query, 0, n)
	for i := 0; i < nk; i++ {
		p := pts[rng.Intn(len(pts))]
		q := geom.Point{
			X: math.Round(math.Min(math.Max(p.X+(rng.Float64()-0.5)*10_000, 0), 1e6)),
			Y: math.Round(math.Min(math.Max(p.Y+(rng.Float64()-0.5)*10_000, 0), 1e6)),
		}
		k := 10 + int(strat(i, nk)*41)
		out = append(out, query{knn: true, file: file, q: q, k: k,
			path: fmt.Sprintf("/knn?file=%s&point=%s,%s&k=%d", file, num(q.X), num(q.Y), k)})
	}
	for i := 0; i < nr; i++ {
		frac := 0.01 + 0.04*strat(i, nr)
		aspect := math.Exp((strat(aspects[i], nr)*2 - 1) * math.Ln2)
		w := math.Round(math.Sqrt(frac*aspect) * 1e6)
		h := math.Round(math.Sqrt(frac/aspect) * 1e6)
		x := math.Round(rng.Float64() * (1e6 - w))
		y := math.Round(rng.Float64() * (1e6 - h))
		r := geom.Rect{MinX: x, MinY: y, MaxX: x + w, MaxY: y + h}
		out = append(out, query{file: file, rect: r,
			path: rangePath(file, r)})
	}
	rng.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// genSequence orders one round of ops over a pool of fresh queries: each
// fresh query once, in order, and repeats making up the given share of
// the round, each of a query from the last 16 ops, at random places. A
// repeat always hits the result cache; a fresh query always misses once
// the pool outnumbers the cache, so every round has the same number of
// hits.
func genSequence(rng *rand.Rand, fresh []int, repeatShare float64) []int {
	reps := int(math.Round(float64(len(fresh)) * repeatShare / (1 - repeatShare)))
	total := len(fresh) + reps
	// Repeats take reps of the places 1..total-1 (never the first).
	isRep := make([]bool, total)
	for _, i := range rng.Perm(total - 1)[:reps] {
		isRep[i+1] = true
	}
	seq := make([]int, 0, total)
	next := 0
	for i := 0; i < total; i++ {
		if isRep[i] {
			seq = append(seq, seq[max(0, i-16)+rng.Intn(min(16, i))])
			continue
		}
		seq = append(seq, fresh[next])
		next++
	}
	return seq
}

func rangePath(file string, r geom.Rect) string {
	return fmt.Sprintf("/rangequery?file=%s&rect=%s,%s,%s,%s", file, num(r.MinX), num(r.MinY), num(r.MaxX), num(r.MaxY))
}

// num formats a coordinate for a URL: plain decimal, never e-notation,
// whose '+' a query string would read as a space.
func num(f float64) string { return strconv.FormatFloat(f, 'f', -1, 64) }

// corpusParts is how many independent clustered sets make up a corpus.
const corpusParts = 8

// corpus draws n clustered points as eight datagen.Clustered sets of n/8
// points, each with its own 24 clusters. The layout of a single set varies
// so much from seed to seed that answer sizes (the median range answer
// spreads by half its size over ten seeds) and with them every figure would
// follow the seed; eight sets bring that spread under 5%.
func corpus(seed int64, n int) []geom.Point {
	pts := make([]geom.Point, 0, n)
	for i := 0; i < corpusParts; i++ {
		pts = append(pts, datagen.Points(datagen.Clustered, n/corpusParts, area, seed*corpusParts+int64(i))...)
	}
	return pts
}
