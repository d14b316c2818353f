package main

import (
	"fmt"
	"math"
	"sort"

	"spatialhadoop/internal/geom"
)

// Oracles of the benchmark's own, written without the program's query,
// index or computational-geometry code: brute force over the generated
// inputs. Each distinct answer is checked once; repeats are compared by
// hash (see setHash).

// inRect is closed containment, the program's documented range predicate.
func inRect(p geom.Point, r geom.Rect) bool {
	return p.X >= r.MinX && p.X <= r.MaxX && p.Y >= r.MinY && p.Y <= r.MaxY
}

// rangeOracle returns the points inside r in (x, then y) order.
func rangeOracle(pts []geom.Point, r geom.Rect) []geom.Point {
	var out []geom.Point
	for _, p := range pts {
		if inRect(p, r) {
			out = append(out, p)
		}
	}
	sortXY(out)
	return out
}

// dataset is one generated point set with the indexes its oracles build on
// first use.
type dataset struct {
	pts     []geom.Point
	byXY    []geom.Point // pts in (x, then y) order
	members map[geom.Point]bool
}

func (d *dataset) memberSet() map[geom.Point]bool {
	if d.members == nil {
		d.members = make(map[geom.Point]bool, len(d.pts))
		for _, p := range d.pts {
			d.members[p] = true
		}
	}
	return d.members
}

// rangeOracle is rangeOracle(d.pts, r) over the x-sorted copy: binary
// searches bound the x-slice, and every point in it is tested.
func (d *dataset) rangeOracle(r geom.Rect) []geom.Point {
	if d.byXY == nil {
		d.byXY = append([]geom.Point(nil), d.pts...)
		sortXY(d.byXY)
	}
	s := d.byXY
	lo := sort.Search(len(s), func(i int) bool { return s[i].X >= r.MinX })
	hi := sort.Search(len(s), func(i int) bool { return s[i].X > r.MaxX })
	var out []geom.Point
	for _, p := range s[lo:hi] {
		if inRect(p, r) {
			out = append(out, p)
		}
	}
	return out
}

func sortXY(pts []geom.Point) {
	sort.Slice(pts, func(i, j int) bool {
		if pts[i].X != pts[j].X {
			return pts[i].X < pts[j].X
		}
		return pts[i].Y < pts[j].Y
	})
}

func samePoints(got, want []geom.Point) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d points, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("point %d is %v, want %v", i, got[i], want[i])
		}
	}
	return nil
}

// checkRange checks an answer given in any order against the brute force.
func checkRange(pts []geom.Point, r geom.Rect, got []geom.Point) error {
	g := append([]geom.Point(nil), got...)
	sortXY(g)
	return samePoints(g, rangeOracle(pts, r))
}

// knnDists returns the k smallest distances from q over pts, ascending.
func knnDists(pts []geom.Point, q geom.Point, k int) []float64 {
	best := make([]float64, 0, k+1) // ascending, at most k
	for _, p := range pts {
		d := math.Hypot(p.X-q.X, p.Y-q.Y)
		if len(best) == k && d >= best[k-1] {
			continue
		}
		i := sort.SearchFloat64s(best, d)
		best = append(best, 0)
		copy(best[i+1:], best[i:])
		best[i] = d
		if len(best) > k {
			best = best[:k]
		}
	}
	return best
}

// checkKNN checks a kNN answer: min(k, n) neighbours, distances that never
// decrease, every neighbour a point of the input at its stated distance,
// and the multiset of distances equal to the brute force's.
func checkKNN(pts []geom.Point, members map[geom.Point]bool, q geom.Point, k int, got []geom.Point, dists []float64) error {
	want := knnDists(pts, q, k)
	if len(got) != len(want) {
		return fmt.Errorf("%d neighbours, want min(k=%d, n=%d) = %d", len(got), k, len(pts), len(want))
	}
	for i, p := range got {
		if !members[p] {
			return fmt.Errorf("neighbour %v is not an input point", p)
		}
		d := math.Hypot(p.X-q.X, p.Y-q.Y)
		if dists != nil && dists[i] != d {
			return fmt.Errorf("neighbour %d: stated distance %v, actual %v", i, dists[i], d)
		}
		if i > 0 && d < math.Hypot(got[i-1].X-q.X, got[i-1].Y-q.Y) {
			return fmt.Errorf("distances decrease at neighbour %d", i)
		}
		if d != want[i] {
			return fmt.Errorf("distance %d is %v, want %v", i, d, want[i])
		}
	}
	return nil
}

// checkKNNSet is checkKNN for an answer whose order carries no meaning:
// it is ordered by distance first.
func checkKNNSet(pts []geom.Point, members map[geom.Point]bool, q geom.Point, k int, got []geom.Point) error {
	g := append([]geom.Point(nil), got...)
	sort.SliceStable(g, func(i, j int) bool {
		return math.Hypot(g[i].X-q.X, g[i].Y-q.Y) < math.Hypot(g[j].X-q.X, g[j].Y-q.Y)
	})
	return checkKNN(pts, members, q, k, g, nil)
}

// joinOracle returns every (i, j) whose rectangles intersect (closed), the
// pairwise test over the two generated tessellations' bounding boxes.
func joinOracle(a, b []geom.Rect) [][2]int {
	var out [][2]int
	for i, r := range a {
		for j, s := range b {
			if r.MinX <= s.MaxX && s.MinX <= r.MaxX && r.MinY <= s.MaxY && s.MinY <= r.MaxY {
				out = append(out, [2]int{i, j})
			}
		}
	}
	return out
}

// skylineOracle returns the max-max skyline: the points no other point
// dominates (at least as large on both axes, different), duplicates once,
// in descending x.
func skylineOracle(pts []geom.Point) []geom.Point {
	s := append([]geom.Point(nil), pts...)
	sort.Slice(s, func(i, j int) bool {
		if s[i].X != s[j].X {
			return s[i].X > s[j].X
		}
		return s[i].Y > s[j].Y
	})
	var out []geom.Point
	for _, p := range s {
		if len(out) == 0 || p.Y > out[len(out)-1].Y {
			out = append(out, p)
		}
	}
	return out
}

// hullOracle returns the convex hull's vertices (collinear boundary points
// excluded) counter-clockwise from the lowest-leftmost, by the monotone
// chain.
func hullOracle(pts []geom.Point) []geom.Point {
	s := append([]geom.Point(nil), pts...)
	sortXY(s)
	u := s[:0]
	for i, p := range s {
		if i == 0 || p != s[i-1] {
			u = append(u, p)
		}
	}
	if len(u) < 3 {
		return u
	}
	cross := func(o, a, b geom.Point) float64 { return (a.X-o.X)*(b.Y-o.Y) - (a.Y-o.Y)*(b.X-o.X) }
	var h []geom.Point
	for pass := 0; pass < 2; pass++ {
		start := len(h)
		for i := range u {
			p := u[i]
			if pass == 1 {
				p = u[len(u)-1-i]
			}
			for len(h) >= start+2 && cross(h[len(h)-2], h[len(h)-1], p) <= 0 {
				h = h[:len(h)-1]
			}
			h = append(h, p)
		}
		h = h[:len(h)-1]
	}
	return h
}

// checkSet compares two point sets regardless of order.
func checkSet(got, want []geom.Point) error {
	g := append([]geom.Point(nil), got...)
	w := append([]geom.Point(nil), want...)
	sortXY(g)
	sortXY(w)
	return samePoints(g, w)
}

// plotOracle marks the pixels of a w x h raster over extent that hold at
// least one point: x maps left to right and y top to bottom (north up),
// each pixel is the half-open [lo, hi) slice of the extent, and points on
// the far edges fall into the last row or column.
func plotOracle(pts []geom.Point, extent geom.Rect, w, h int) []bool {
	out := make([]bool, w*h)
	for _, p := range pts {
		if !inRect(p, extent) {
			continue
		}
		px := min(int((p.X-extent.MinX)/(extent.MaxX-extent.MinX)*float64(w)), w-1)
		py := min(int((extent.MaxY-p.Y)/(extent.MaxY-extent.MinY)*float64(h)), h-1)
		out[py*w+px] = true
	}
	return out
}

// mix64 is the splitmix64 finalizer.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}

// setHash hashes a multiset of points independently of order, so repeats
// of a verified answer are compared without sorting.
func setHash(pts []geom.Point) uint64 {
	h := mix64(uint64(len(pts)))
	for _, p := range pts {
		h += mix64(math.Float64bits(p.X) ^ mix64(math.Float64bits(p.Y)))
	}
	return h
}
