package main

import (
	"encoding/json"
	"math/rand"
	"os"
	"testing"

	"spatialhadoop/internal/geom"
)

func pt(x, y float64) geom.Point { return geom.Point{X: x, Y: y} }

func TestRangeOracle(t *testing.T) {
	pts := []geom.Point{pt(5, 5), pt(1, 1), pt(2, 8), pt(4, 2), pt(2, 2), pt(9, 9)}
	// Closed rectangle: (2,2) and (4,2) sit on its edges.
	got := rangeOracle(pts, geom.Rect{MinX: 2, MinY: 2, MaxX: 5, MaxY: 5})
	want := []geom.Point{pt(2, 2), pt(4, 2), pt(5, 5)}
	if err := samePoints(got, want); err != nil {
		t.Fatal(err)
	}
	if err := checkRange(pts, geom.Rect{MinX: 2, MinY: 2, MaxX: 5, MaxY: 5}, []geom.Point{pt(5, 5), pt(2, 2), pt(4, 2)}); err != nil {
		t.Fatal(err)
	}
	if err := checkRange(pts, geom.Rect{MinX: 2, MinY: 2, MaxX: 5, MaxY: 5}, []geom.Point{pt(5, 5), pt(2, 2)}); err == nil {
		t.Fatal("a missing point passed")
	}
}

func TestKNNOracle(t *testing.T) {
	pts := []geom.Point{pt(0, 0), pt(3, 4), pt(6, 8), pt(0, 5), pt(-3, -4)}
	members := map[geom.Point]bool{}
	for _, p := range pts {
		members[p] = true
	}
	q := pt(0, 0)
	if d := knnDists(pts, q, 3); len(d) != 3 || d[0] != 0 || d[1] != 5 || d[2] != 5 {
		t.Fatalf("knnDists = %v, want [0 5 5]", d)
	}
	// Three points tie at distance 5: any two of them are a right answer.
	if err := checkKNN(pts, members, q, 3, []geom.Point{pt(0, 0), pt(0, 5), pt(-3, -4)}, []float64{0, 5, 5}); err != nil {
		t.Fatal(err)
	}
	if err := checkKNN(pts, members, q, 3, []geom.Point{pt(0, 0), pt(6, 8), pt(3, 4)}, nil); err == nil {
		t.Fatal("a decreasing distance passed")
	}
	if err := checkKNN(pts, members, q, 3, []geom.Point{pt(0, 0), pt(3, 4), pt(6, 8)}, nil); err == nil {
		t.Fatal("a too-far neighbour passed")
	}
	if err := checkKNN(pts, members, q, 3, []geom.Point{pt(0, 0), pt(3, 4), pt(4, 3)}, nil); err == nil {
		t.Fatal("a point outside the input passed")
	}
	// k above n: all n points.
	if err := checkKNNSet(pts, members, q, 9, []geom.Point{pt(6, 8), pt(0, 0), pt(3, 4), pt(0, 5), pt(-3, -4)}); err != nil {
		t.Fatal(err)
	}
	if err := checkKNNSet(pts, members, q, 9, pts[:4]); err == nil {
		t.Fatal("a short answer passed")
	}
}

func TestJoinOracle(t *testing.T) {
	a := []geom.Rect{{MinX: 0, MinY: 0, MaxX: 2, MaxY: 2}, {MinX: 5, MinY: 5, MaxX: 6, MaxY: 6}}
	b := []geom.Rect{{MinX: 1, MinY: 1, MaxX: 3, MaxY: 3}, {MinX: 2, MinY: 0, MaxX: 4, MaxY: 1}, {MinX: 7, MinY: 7, MaxX: 8, MaxY: 8}}
	got := joinOracle(a, b)
	// (0,1) touch along x = 2: closed rectangles intersect.
	want := [][2]int{{0, 0}, {0, 1}}
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("joinOracle = %v, want %v", got, want)
	}
}

func TestSkylineOracle(t *testing.T) {
	pts := []geom.Point{pt(1, 9), pt(5, 5), pt(9, 1), pt(4, 4), pt(5, 5), pt(9, 0), pt(2, 9), pt(3, 3)}
	// (1,9) is dominated by (2,9), (9,0) by (9,1); (5,5) appears once.
	want := []geom.Point{pt(9, 1), pt(5, 5), pt(2, 9)}
	if err := samePoints(skylineOracle(pts), want); err != nil {
		t.Fatal(err)
	}
}

func TestHullOracle(t *testing.T) {
	pts := []geom.Point{pt(0, 0), pt(4, 0), pt(4, 4), pt(0, 4), pt(2, 2), pt(2, 0), pt(1, 3), pt(4, 4)}
	// (2,0) is collinear on the bottom edge and left out.
	want := []geom.Point{pt(0, 0), pt(4, 0), pt(4, 4), pt(0, 4)}
	if err := samePoints(hullOracle(pts), want); err != nil {
		t.Fatal(err)
	}
	if err := checkSet([]geom.Point{pt(4, 4), pt(0, 4), pt(0, 0), pt(4, 0)}, want); err != nil {
		t.Fatal(err)
	}
}

func TestPlotOracle(t *testing.T) {
	ext := geom.Rect{MinX: 0, MinY: 0, MaxX: 4, MaxY: 2}
	// 4x2 raster of unit pixels; row 0 is the top (MaxY-y in [0, 1)).
	pts := []geom.Point{pt(0, 0), pt(3.5, 1.5), pt(4, 2), pt(2, 1), pt(5, 1)}
	got := plotOracle(pts, ext, 4, 2)
	want := []bool{
		false, false, false, true, // (3.5,1.5) and the far corner (4,2)
		true, false, false, false, // (0,0)
	}
	// (2,1): x = 2 starts column 2; MaxY-y = 1 starts row 1 from the top.
	want[1*4+2] = true
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pixel %d = %v, want %v (raster %v)", i, got[i], want[i], got)
		}
	}
}

func TestSetHashIgnoresOrder(t *testing.T) {
	a := []geom.Point{pt(1, 2), pt(3, 4), pt(1, 2)}
	b := []geom.Point{pt(3, 4), pt(1, 2), pt(1, 2)}
	if setHash(a) != setHash(b) {
		t.Fatal("hash depends on order")
	}
	if setHash(a) == setHash(a[:2]) || setHash(a) == setHash([]geom.Point{pt(2, 1), pt(3, 4), pt(1, 2)}) {
		t.Fatal("hash misses a change")
	}
}

// TestMetricListsMatchBenchmarkJSON keeps the printed metrics and
// BENCHMARK.json in step.
func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	body, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
		Workloads []struct{ Name string }       `json:"workloads"`
	}
	if err := json.Unmarshal(body, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the benchmark %d", len(spec.PerLayer), len(perLayer))
	}
	for i, m := range spec.PerLayer {
		if m.Name != perLayer[i][0] || m.Unit != perLayer[i][1] {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %s (%s), the benchmark %s (%s)", i, m.Name, m.Unit, perLayer[i][0], perLayer[i][1])
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %s has no implementation", w.Name)
		}
	}
}

func TestDatasetRangeOracleMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	d := &dataset{}
	for i := 0; i < 2000; i++ {
		// Whole coordinates put many points on window edges.
		d.pts = append(d.pts, pt(float64(rng.Intn(100)), float64(rng.Intn(100))))
	}
	for i := 0; i < 200; i++ {
		x, y := float64(rng.Intn(100)), float64(rng.Intn(100))
		r := geom.Rect{MinX: x, MinY: y, MaxX: x + float64(rng.Intn(30)), MaxY: y + float64(rng.Intn(30))}
		if err := samePoints(d.rangeOracle(r), rangeOracle(d.pts, r)); err != nil {
			t.Fatalf("window %v: %v", r, err)
		}
	}
}
