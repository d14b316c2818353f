package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"spatialhadoop/internal/core"
	"spatialhadoop/internal/geom"
	"spatialhadoop/internal/geomio"
	"spatialhadoop/internal/ops"
	"spatialhadoop/internal/serve"
	"spatialhadoop/internal/sindex"
)

// Churn sizes: four files of 25k points, three versions each. A round has
// 12 segments; segment s re-indexes file s%4 with its next version, then
// sends 48 fresh queries and 5 repeats. Each file is rewritten three times
// a round, so every round starts from the same versions. Fresh queries are
// 80% kNN, so a round is 71% kNN, 18% range, 9% hits and 2% writes: unlike
// on serve-local, where the median is a range answer, the median here is a
// kNN answer and p50_ms follows the kNN path.
const (
	churnFiles    = 4
	churnVersions = 3
	churnPoints   = 25_000
	churnSegments = churnFiles * churnVersions
	churnFresh    = 48 // fresh queries per segment
	churnRepeat   = serveRepeat
	churnKNNShare = 0.8
	shadowFile    = "perfbench.shadow"
)

type churnOp struct {
	write int // file index to rewrite, or -1 for a query
	query int
}

type churnBench struct {
	b     *bench
	names []string
	data  [churnFiles][churnVersions]*dataset
	ver   [churnFiles]int
	pool  []query
	qfile []int
	seq   []churnOp
	sys   *core.System
	hs    *httpServer
	f     *front

	loadMS, encodeMS, buildMS, writeMS []float64
	pinMS                              float64
	pins                               int
}

func newChurnBench() *churnBench { return &churnBench{} }

func (c *churnBench) setup(ctx context.Context, b *bench) error {
	c.b = b
	b.exclude(func() {
		rng := rand.New(rand.NewSource(b.opts.seed))
		for j := 0; j < churnFiles; j++ {
			c.names = append(c.names, fmt.Sprintf("f%d", j))
			for v := 0; v < churnVersions; v++ {
				c.data[j][v] = &dataset{pts: corpus(b.opts.seed*101+int64(j*churnVersions+v), churnPoints)}
			}
		}
		// An equal share of the queries per file, dealt out to the
		// segments at random.
		for j, name := range c.names {
			for _, q := range genQueries(rng, name, c.data[j][0].pts, churnSegments*churnFresh/churnFiles, churnKNNShare) {
				c.pool = append(c.pool, q)
				c.qfile = append(c.qfile, j)
			}
		}
		deal := rng.Perm(len(c.pool))
		for s := 0; s < churnSegments; s++ {
			c.seq = append(c.seq, churnOp{write: s % churnFiles})
			for _, qi := range genSequence(rng, deal[s*churnFresh:(s+1)*churnFresh], churnRepeat) {
				c.seq = append(c.seq, churnOp{write: -1, query: qi})
			}
		}
	})
	c.sys = newSystem(b.opts.seed)
	for j, name := range c.names {
		if _, err := c.sys.LoadPoints(name, c.data[j][0].pts, sindex.STRPlus); err != nil {
			return err
		}
	}
	hs, err := startServer(c.sys, serve.Config{Planner: engineLocal})
	if err != nil {
		return err
	}
	c.hs = hs
	c.f = newFront(b, c.sys, hs, engineLocal)
	for j, name := range c.names {
		if err := c.f.pin(name, c.data[j][0]); err != nil {
			return err
		}
	}
	return nil
}

// warm runs one whole round, which verifies every distinct answer at every
// file version.
func (c *churnBench) warm() error {
	for i := range c.seq {
		if _, err := c.op(i); err != nil {
			return err
		}
	}
	return nil
}

func (c *churnBench) roundLen() int { return len(c.seq) }

func (c *churnBench) op(i int) (time.Duration, error) {
	o := c.seq[i]
	if o.write < 0 {
		j := c.qfile[o.query]
		return c.f.send(o.query, c.ver[j], &c.pool[o.query], c.data[j][c.ver[j]])
	}
	j := o.write
	v := (c.ver[j] + 1) % churnVersions
	pts := c.data[j][v].pts
	tr := c.b.tr
	root := tr.begin("op.write")
	defer tr.end(root)
	sp := tr.begin("core.load")
	t0 := time.Now()
	_, err := c.sys.LoadPoints(c.names[j], pts, sindex.STRPlus)
	lat := time.Since(t0)
	tr.end(sp)
	if err != nil {
		return 0, err
	}
	c.ver[j] = v
	if tr != nil {
		c.loadMS = append(c.loadMS, ms(lat))
		if err := c.traceWrite(pts); err != nil {
			return 0, err
		}
	}
	return lat, nil
}

// traceWrite replays one write layer by layer on a scratch file, with the
// loader's own steps: encode the records, build the STR+ index from the
// loader's sample and assign every point, write the partitioned records
// with checksum sealing, then pin each partition as the next query would.
func (c *churnBench) traceWrite(pts []geom.Point) error {
	tr := c.b.tr
	sp := tr.begin("geomio.encode")
	recs := geomio.EncodePoints(pts)
	c.encodeMS = append(c.encodeMS, ms(tr.end(sp)))

	sp = tr.begin("sindex.build")
	var total int64
	for _, r := range recs {
		total += int64(len(r)) + 1
	}
	space := geom.RectOf(pts)
	space = space.Buffer(1e-9 * (1 + space.Width() + space.Height()))
	rng := rand.New(rand.NewSource(c.b.opts.seed + 1))
	sample := make([]geom.Point, min(10_000, len(pts)))
	for i := range sample {
		sample[i] = pts[rng.Intn(len(pts))]
	}
	gi := sindex.Build(sindex.STRPlus, sample, space, int((total+blockSize-1)/blockSize))
	byCell := make([][]string, len(gi.Cells))
	for i, p := range pts {
		cell := gi.AssignPoint(p)
		byCell[cell] = append(byCell[cell], recs[i])
	}
	c.buildMS = append(c.buildMS, ms(tr.end(sp)))

	sp = tr.begin("dfs.write")
	w, err := c.sys.FS().CreateOrReplace(shadowFile)
	if err != nil {
		return err
	}
	for ci, cell := range byCell {
		if len(cell) == 0 {
			continue
		}
		w.SetPartition(gi.Cells[ci].Key())
		for _, r := range cell {
			w.WriteRecord(r)
		}
	}
	w.SetMaster(gi.Encode())
	if err := w.Close(); err != nil {
		return err
	}
	c.writeMS = append(c.writeMS, ms(tr.end(sp)))

	f, err := c.sys.Open(shadowFile)
	if err != nil {
		return err
	}
	for _, s := range f.Splits() {
		sp = tr.begin("ops.pin")
		if _, err := ops.PinSplit(s); err != nil {
			return err
		}
		c.pinMS += ms(tr.end(sp))
		c.pins++
	}
	c.sys.FS().Delete(shadowFile)
	return nil
}

func (c *churnBench) startTrace() { c.f.beginTrace() }

func (c *churnBench) layers(b *bench, p *phase) {
	c.f.layers(b, p.completed())
	b.set("core.load_ms_per_write", "ms", mean(c.loadMS))
	b.set("geomio.encode_ms_per_write", "ms", mean(c.encodeMS))
	b.set("sindex.build_ms_per_write", "ms", mean(c.buildMS))
	b.set("dfs.write_ms_per_write", "ms", mean(c.writeMS))
	b.set("ops.pin_ms_per_partition", "ms", ratio(c.pinMS, float64(c.pins)))
}

func (c *churnBench) finish(*bench) error { return nil }

func (c *churnBench) close() {
	if c.f != nil {
		c.f.c.close()
	}
	if c.hs != nil {
		c.hs.stop()
	}
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
