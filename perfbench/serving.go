package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/maphash"
	"io"
	"math"
	"math/rand"
	"net/http"
	"time"

	"spatialhadoop/internal/core"
	"spatialhadoop/internal/geom"
	"spatialhadoop/internal/mapreduce"
	"spatialhadoop/internal/obs"
	"spatialhadoop/internal/ops"
	"spatialhadoop/internal/serve"
	"spatialhadoop/internal/sindex"
)

const (
	engineLocal   = serve.PlannerLocal
	engineSharded = serve.PlannerSharded
)

// client is the single closed-loop HTTP client: one keep-alive
// connection, a reused read buffer.
type client struct {
	hc  *http.Client
	tr  *http.Transport
	buf []byte
}

func newClient() *client {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &client{hc: &http.Client{Transport: tr, Timeout: 60 * time.Second}, tr: tr}
}

// get returns the status, headers and body; the body aliases the client's
// buffer until the next call.
func (c *client) get(url string) (int, http.Header, []byte, error) {
	resp, err := c.hc.Get(url)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	if n := resp.ContentLength; n >= 0 {
		if int64(cap(c.buf)) < n {
			c.buf = make([]byte, n+n/4)
		}
		body := c.buf[:n]
		_, err = io.ReadFull(resp.Body, body)
		return resp.StatusCode, resp.Header, body, err
	}
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header, body, err
}

func (c *client) close() { c.tr.CloseIdleConnections() }

type rangeJSON struct {
	Count  int `json:"count"`
	Points []struct {
		X float64 `json:"x"`
		Y float64 `json:"y"`
	} `json:"points"`
}

type knnJSON struct {
	K         int `json:"k"`
	Count     int `json:"count"`
	Neighbors []struct {
		X    float64 `json:"x"`
		Y    float64 `json:"y"`
		Dist float64 `json:"dist"`
	} `json:"neighbors"`
}

// explainJSON holds the `?explain=1` fields the traced run reads.
type explainJSON struct {
	Cache              string `json:"cache"`
	Engine             string `json:"engine"`
	PartitionsScanned  int    `json:"partitions_scanned"`
	SFilterSkips       int    `json:"sfilter_skips"`
	ShardFanout        int    `json:"shard_fanout"`
	ShardRemote        int    `json:"shard_remote"`
	ShardFallbackPeer  int    `json:"shard_fallback_peer"`
	ShardFallbackLocal int    `json:"shard_fallback_local"`
}

// checkBody verifies one response body against the oracles.
func checkBody(q *query, d *dataset, body []byte) error {
	if q.knn {
		var r knnJSON
		if err := json.Unmarshal(body, &r); err != nil {
			return err
		}
		if r.Count != len(r.Neighbors) || r.K != q.k {
			return fmt.Errorf("count %d / k %d for %d neighbours", r.Count, r.K, len(r.Neighbors))
		}
		got := make([]geom.Point, len(r.Neighbors))
		dists := make([]float64, len(r.Neighbors))
		for i, n := range r.Neighbors {
			got[i], dists[i] = geom.Point{X: n.X, Y: n.Y}, n.Dist
		}
		return checkKNN(d.pts, d.memberSet(), q.q, q.k, got, dists)
	}
	var r rangeJSON
	if err := json.Unmarshal(body, &r); err != nil {
		return err
	}
	if r.Count != len(r.Points) {
		return fmt.Errorf("count %d for %d points", r.Count, len(r.Points))
	}
	got := make([]geom.Point, len(r.Points))
	for i, p := range r.Points {
		got[i] = geom.Point{X: p.X, Y: p.Y}
	}
	// The body lists points in (x, then y) order, as the oracle does.
	return samePoints(got, d.rangeOracle(q.rect))
}

// splitExplain separates the spliced `"explain":{...}` member from a body.
func splitExplain(body []byte) ([]byte, *explainJSON, error) {
	const member = `,"explain":`
	i := bytes.LastIndex(body, []byte(member))
	end := bytes.LastIndexByte(body, '}') // closes the top-level object
	if i < 0 || end < i+len(member) {
		return nil, nil, fmt.Errorf("no explain member")
	}
	var e explainJSON
	if err := json.Unmarshal(body[i+len(member):end], &e); err != nil {
		return nil, nil, err
	}
	plain := append(body[:i:i], body[end:]...)
	return plain, &e, nil
}

// captureSource wraps a memory-tier source and keeps the partitions an
// executor pins, so the traced run can time the index searches on them.
type captureSource struct {
	inner ops.LocalSource
	parts []*ops.LocalPartition
}

func (c *captureSource) Pin(sp *mapreduce.Split) (*ops.LocalPartition, error) {
	p, err := c.inner.Pin(sp)
	if err == nil {
		c.parts = append(c.parts, p)
	}
	return p, err
}

func (c *captureSource) Filter() *sindex.SFilter { return c.inner.Filter() }

// front is the serving client shared by the serving workloads: it sends a
// query, checks the answer (each distinct (query, file version) once
// against the oracle, then by hash) and, in a traced phase, replays the
// query through the executor layers to time them.
type front struct {
	b      *bench
	sys    *core.System
	hs     *httpServer
	c      *client
	engine string
	seed   maphash.Seed
	// seen maps (query, version) to the hash of its verified body.
	seen map[[2]int]uint64

	// shadow is the benchmark's own memory tier for the traced replays.
	shadow *serve.MemTier
	files  map[string]fileAt

	acc layerAcc
}

// fileAt is an opened file at one epoch.
type fileAt struct {
	epoch int64
	f     *core.IndexedFile
}

// layerAcc accumulates the traced phase's serving breakdown.
type layerAcc struct {
	requests, hits, misses                int
	overheadUS, execUS, rtreeUS, probeUS  []float64
	skips, scanned, fanout                float64
	examined, results                     float64
	kernelUS, fragments                   float64
	pinsBefore                            int64
	shardFallbacksBefore, rpcErrorsBefore int64
	remoteBefore                          obs.HistogramSnapshot
}

func newFront(b *bench, sys *core.System, hs *httpServer, engine string) *front {
	return &front{b: b, sys: sys, hs: hs, c: newClient(), engine: engine, seed: maphash.MakeSeed(),
		seen: map[[2]int]uint64{}, files: map[string]fileAt{}}
}

// pin sends one pin query per partition of file (see pinQueries) and
// checks each answer against the oracle, outside setup_s.
func (f *front) pin(file string, d *dataset) error {
	var qs []query
	var err error
	f.b.exclude(func() { qs, err = pinQueries(f.sys, file) })
	if err != nil {
		return err
	}
	for i := range qs {
		q := &qs[i]
		status, _, body, err := f.c.get(f.hs.base + q.path)
		if err != nil {
			return err
		}
		if status != http.StatusOK {
			return fmt.Errorf("%s: status %d: %.200s", q.path, status, body)
		}
		f.b.exclude(func() {
			if err := checkBody(q, d, body); err != nil {
				f.b.fail("%s: %v", q.path, err)
			}
		})
	}
	return nil
}

// pinQueries returns one range query per partition of file: a zero-width
// window at the least x of the partition's content MBR, spanning its
// height. The window holds the partition's leftmost record, so no filter
// can prune the partition, and answering the query pins it in the memory
// tier (sharded: places its serving replicas and pins it on its holder).
// The answers are a few points each.
func pinQueries(sys *core.System, file string) ([]query, error) {
	fl, err := sys.Open(file)
	if err != nil {
		return nil, err
	}
	var qs []query
	for _, s := range fl.Splits() {
		c := s.ContentMBR
		if c.IsEmpty() {
			continue
		}
		r := geom.Rect{MinX: c.MinX, MinY: c.MinY, MaxX: c.MinX, MaxY: c.MaxY}
		qs = append(qs, query{file: file, rect: r, path: rangePath(file, r)})
	}
	return qs, nil
}

// send runs query qi against file version ver and returns its latency.
func (f *front) send(qi, ver int, q *query, d *dataset) (time.Duration, error) {
	tr := f.b.tr
	url := f.hs.base + q.path
	if tr != nil {
		url += "&explain=1"
	}
	root := tr.begin("op.query")
	defer tr.end(root)
	sp := tr.begin("http.request")
	t0 := time.Now()
	status, hdr, body, err := f.c.get(url)
	lat := time.Since(t0)
	tr.end(sp)
	if err != nil {
		return 0, err
	}
	if status != http.StatusOK {
		return 0, fmt.Errorf("%s: status %d: %.200s", q.path, status, body)
	}
	var exp *explainJSON
	if tr != nil {
		if body, exp, err = splitExplain(body); err != nil {
			return 0, fmt.Errorf("%s: %v", q.path, err)
		}
	}
	engine := hdr.Get("X-Engine")
	if engine != "cache" && engine != f.engine {
		f.b.fail("%s: answered by engine %q, want %q", q.path, engine, f.engine)
	}
	key := [2]int{qi, ver}
	h := maphash.Bytes(f.seed, body)
	if want, ok := f.seen[key]; ok {
		if h != want {
			f.b.fail("%s (version %d): body differs from its verified answer", q.path, ver)
		}
	} else {
		f.b.exclude(func() {
			if err := checkBody(q, d, body); err != nil {
				f.b.fail("%s (version %d): %v", q.path, ver, err)
			}
		})
		f.seen[key] = h
	}
	if tr != nil {
		f.trace(q, exp, lat)
	}
	return lat, nil
}

// trace replays a cache miss through the local executor on the
// benchmark's own tier and times each layer call.
func (f *front) trace(q *query, exp *explainJSON, lat time.Duration) {
	a := &f.acc
	a.requests++
	if exp.Cache == "hit" {
		a.hits++
		return
	}
	a.misses++
	a.skips += float64(exp.SFilterSkips)
	a.scanned += float64(exp.PartitionsScanned)
	a.fanout += float64(exp.ShardFanout)
	tr := f.b.tr
	epoch := f.sys.FS().FileEpoch(q.file)
	at, ok := f.files[q.file]
	if !ok || at.epoch != epoch {
		fl, err := f.sys.Open(q.file)
		if err != nil {
			f.b.fail("%s: open: %v", q.file, err)
			return
		}
		at = fileAt{epoch: epoch, f: fl}
		f.files[q.file] = at
	}
	fl := at.f
	src := &captureSource{inner: f.shadow.Source(q.file, epoch, fl.Index)}

	sp := tr.begin("ops.local_exec")
	var nres int
	var probe geom.Rect
	if q.knn {
		pts, _, err := ops.LocalKNNPoints(f.sys, q.file, src, q.q, q.k)
		if err != nil {
			f.b.fail("%s: traced replay: %v", q.path, err)
		}
		nres = len(pts)
		r := 0.0
		if len(pts) > 0 {
			last := pts[len(pts)-1]
			r = math.Hypot(last.X-q.q.X, last.Y-q.q.Y)
		}
		probe = geom.Rect{MinX: q.q.X - r, MinY: q.q.Y - r, MaxX: q.q.X + r, MaxY: q.q.Y + r}
	} else {
		m, _, err := ops.LocalRangeMatches(f.sys, q.file, src, q.rect)
		if err != nil {
			f.b.fail("%s: traced replay: %v", q.path, err)
		}
		for _, x := range m {
			nres += len(x.IDs)
		}
		probe = q.rect
	}
	exec := tr.end(sp)
	a.execUS = append(a.execUS, us(exec))
	a.overheadUS = append(a.overheadUS, us(lat-exec))
	a.results += float64(nres)

	sp = tr.begin("rtree.search")
	for _, p := range src.parts {
		a.examined += float64(len(p.Recs))
		if q.knn {
			p.Tree.NearestWithTies(q.q, q.k)
		} else {
			p.Tree.Search(q.rect, nil)
		}
	}
	a.rtreeUS = append(a.rtreeUS, us(tr.end(sp)))

	sf := src.Filter()
	splits := fl.Splits()
	sp = tr.begin("sindex.sfilter_probe")
	for _, s := range splits {
		if s.Cover().Intersects(probe) {
			sf.MayIntersect(s.Partition, probe)
		}
	}
	a.probeUS = append(a.probeUS, us(tr.end(sp)))

	if f.engine == engineSharded {
		for _, p := range src.parts {
			sp = tr.begin("worker.kernel")
			if q.knn {
				ops.PartitionKNNCandidates(p, q.q, q.k)
			} else {
				ops.PartitionRangePoints(p, q.rect)
			}
			a.kernelUS += us(tr.end(sp))
			a.fragments++
		}
	}
}

// beginTrace snapshots the server counters the traced phase reports as
// deltas, and sets up the shadow tier.
func (f *front) beginTrace() {
	f.shadow = serve.NewMemTier(64<<20, obs.NewRegistry())
	snap := f.hs.srv.Metrics().Snapshot()
	f.acc = layerAcc{
		pinsBefore:           snap.Counters["serve.memtier.misses"],
		shardFallbacksBefore: snap.Counters["serve.shard.fallback.peer"] + snap.Counters["serve.shard.fallback.local"],
		rpcErrorsBefore:      snap.Counters["serve.shard.rpc.errors"],
		remoteBefore:         snap.Histograms[remoteHist],
	}
}

// remoteHist is the sharded engine's remote-fragment latency histogram.
var remoteHist = obs.Name("serve.shard.latency_us", "path", "remote")

// histSince returns the observations h gained since before. Max stays the
// whole histogram's, which only caps Quantile's bucket bound.
func histSince(h, before obs.HistogramSnapshot) obs.HistogramSnapshot {
	d := obs.HistogramSnapshot{Count: h.Count - before.Count, Sum: h.Sum - before.Sum, Max: h.Max,
		Buckets: append([]int64(nil), h.Buckets...)}
	for i := range d.Buckets {
		if i < len(before.Buckets) {
			d.Buckets[i] -= before.Buckets[i]
		}
	}
	return d
}

// layers reports the serving breakdown of the traced phase.
func (f *front) layers(b *bench, done int64) {
	a := &f.acc
	// /metrics refreshes the tier gauges before the snapshot.
	if _, _, _, err := f.c.get(f.hs.base + "/metrics"); err != nil {
		b.fail("/metrics: %v", err)
	}
	snap := f.hs.srv.Metrics().Snapshot()
	miss := float64(max(a.misses, 1))
	b.set("serve.overhead_us", "us", quantile(a.overheadUS, 0.5))
	b.set("ops.local_exec_us", "us", quantile(a.execUS, 0.5))
	b.set("rtree.search_us", "us", quantile(a.rtreeUS, 0.5))
	b.set("sindex.sfilter_probe_us", "us", quantile(a.probeUS, 0.5))
	b.set("sindex.sfilter_skips_per_query", "count", a.skips/miss)
	b.set("ops.partitions_scanned_per_query", "count", a.scanned/miss)
	b.set("ops.examined_per_result", "count", ratio(a.examined, a.results))
	b.set("serve.cache_hits", "count", float64(a.hits))
	b.set("serve.cache_hit_fraction", "ratio", ratio(float64(a.hits), float64(a.requests)))
	b.set("serve.memtier_mb", "MB", snap.Gauges["serve.memtier.bytes"]/(1<<20))
	b.set("serve.pins_per_op", "count", ratio(float64(snap.Counters["serve.memtier.misses"]-a.pinsBefore), float64(done)))
	if f.engine == engineSharded {
		// Traced half only, like the kernel time it is compared with.
		remote := histSince(snap.Histograms[remoteHist], a.remoteBefore)
		kernel := ratio(a.kernelUS, a.fragments)
		b.set("serve.shard.fanout_per_query", "count", a.fanout/miss)
		b.set("serve.shard.remote_us_p50", "us", remote.Quantile(0.5))
		b.set("worker.kernel_us_per_fragment", "us", kernel)
		b.set("serve.shard.transport_us_per_fragment", "us", remote.Mean()-kernel)
		b.set("serve.shard.fallbacks", "count", float64(snap.Counters["serve.shard.fallback.peer"]+snap.Counters["serve.shard.fallback.local"]-a.shardFallbacksBefore))
		b.set("serve.shard.rpc_errors", "count", float64(snap.Counters["serve.shard.rpc.errors"]-a.rpcErrorsBefore))
	}
}

// serveBench is the serve-local and serve-sharded workload: range and kNN
// requests over one indexed 200k-point file, every fresh query a cache
// miss and every repeat a hit.
type serveBench struct {
	engine string
	data   *dataset
	pool   []query
	seq    []int
	sys    *core.System
	cl     *cluster
	hs     *httpServer
	f      *front
}

func newServeBench(engine string) *serveBench { return &serveBench{engine: engine} }

// Corpus and query-pool sizes. The pool (800 fresh queries a round) is
// over three times the result cache's default 256 entries, so a fresh
// query is always evicted before the next round asks it again. A round is
// 10% cache hits, 9% kNN and 81% range misses. Hits, kNN and range answers
// form three separate latency bands; these shares put the median well
// inside the range band (near its 38th percentile), where a shift of a few
// ops does not move it from one band to another.
const (
	servePoints   = 200_000
	servePool     = 800
	serveRepeat   = 0.1
	serveKNNShare = 0.1
)

func (s *serveBench) setup(ctx context.Context, b *bench) error {
	b.exclude(func() {
		rng := rand.New(rand.NewSource(b.opts.seed))
		s.data = &dataset{pts: corpus(b.opts.seed, servePoints)}
		s.pool = genQueries(rng, "pts", s.data.pts, servePool, serveKNNShare)
		fresh := make([]int, len(s.pool))
		for i := range fresh {
			fresh[i] = i
		}
		s.seq = genSequence(rng, fresh, serveRepeat)
	})
	s.sys = newSystem(b.opts.seed)
	if _, err := s.sys.LoadPoints("pts", s.data.pts, sindex.STRPlus); err != nil {
		return err
	}
	if s.engine == engineSharded {
		cl, err := startCluster(ctx, s.sys, true)
		if err != nil {
			return err
		}
		s.cl = cl
	}
	hs, err := startServer(s.sys, serve.Config{Planner: s.engine})
	if err != nil {
		return err
	}
	s.hs = hs
	s.f = newFront(b, s.sys, hs, s.engine)
	return s.f.pin("pts", s.data)
}

// warm runs one whole round, which verifies every distinct answer.
func (s *serveBench) warm() error {
	for i := range s.seq {
		if _, err := s.op(i); err != nil {
			return err
		}
	}
	return nil
}

func (s *serveBench) roundLen() int { return len(s.seq) }

func (s *serveBench) op(i int) (time.Duration, error) {
	qi := s.seq[i]
	return s.f.send(qi, 0, &s.pool[qi], s.data)
}

func (s *serveBench) startTrace() { s.f.beginTrace() }

func (s *serveBench) layers(b *bench, p *phase) { s.f.layers(b, p.completed()) }

// finish checks, on serve-sharded, that every pooled answer is
// byte-identical to the local engine's, from a second server on the same
// system with the cache off so each body is built afresh.
func (s *serveBench) finish(b *bench) error {
	if s.engine != engineSharded {
		return nil
	}
	hs, err := startServer(s.sys, serve.Config{Planner: engineLocal, CacheSize: -1})
	if err != nil {
		return err
	}
	defer hs.stop()
	c := newClient()
	defer c.close()
	for qi := range s.pool {
		q := &s.pool[qi]
		status, _, body, err := c.get(hs.base + q.path + "&engine=local")
		if err != nil || status != http.StatusOK {
			return fmt.Errorf("local engine %s: status %d, %v", q.path, status, err)
		}
		if maphash.Bytes(s.f.seed, body) != s.f.seen[[2]int{qi, 0}] {
			b.fail("%s: sharded body differs from the local engine's", q.path)
		}
	}
	return nil
}

func (s *serveBench) close() {
	if s.f != nil {
		s.f.c.close()
	}
	if s.hs != nil {
		s.hs.stop()
	}
	if s.cl != nil {
		s.cl.stop()
	}
}
