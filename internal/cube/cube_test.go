package cube

import (
	"math"
	"math/rand/v2"
	"sort"
	"testing"

	"repro/internal/sketch"
)

func newTestCube(t *testing.T) *Cube {
	t.Helper()
	c, err := New(Schema{
		Dims: []string{"country", "version", "os"},
		Card: []int{4, 5, 3},
	}, func() sketch.Summary { return sketch.NewMSketch(8) })
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestCubeIngestAndCells(t *testing.T) {
	c := newTestCube(t)
	c.Ingest([]int{0, 0, 0}, 1.5)
	c.Ingest([]int{0, 0, 0}, 2.5)
	c.Ingest([]int{1, 2, 1}, 10)
	if c.NumCells() != 2 {
		t.Errorf("NumCells = %d, want 2", c.NumCells())
	}
	sum, count := c.QuerySum()
	if sum != 14 || count != 3 {
		t.Errorf("QuerySum = %v, %v", sum, count)
	}
}

func TestCubeRollupMatchesRawData(t *testing.T) {
	c := newTestCube(t)
	rng := rand.New(rand.NewPCG(1, 2))
	var usaData, allData []float64
	for i := 0; i < 30000; i++ {
		coords := []int{rng.IntN(4), rng.IntN(5), rng.IntN(3)}
		v := rng.ExpFloat64() * 10
		c.Ingest(coords, v)
		allData = append(allData, v)
		if coords[0] == 2 {
			usaData = append(usaData, v)
		}
	}
	// Filtered roll-up over one dimension value.
	agg, merges, err := c.Query(Filter{Dim: 0, Value: 2})
	if err != nil {
		t.Fatal(err)
	}
	if merges == 0 || merges > 15 {
		t.Errorf("merges = %d, want <= 15 cells", merges)
	}
	if got := agg.Count(); got != float64(len(usaData)) {
		t.Errorf("filtered count = %v, want %d", got, len(usaData))
	}
	sort.Float64s(usaData)
	q := agg.Quantile(0.9)
	rank := float64(sort.SearchFloat64s(usaData, q)) / float64(len(usaData))
	if math.Abs(rank-0.9) > 0.02 {
		t.Errorf("rollup p90 rank error %v", math.Abs(rank-0.9))
	}
	// Unfiltered roll-up covers everything.
	aggAll, _, err := c.Query()
	if err != nil {
		t.Fatal(err)
	}
	if aggAll.Count() != float64(len(allData)) {
		t.Errorf("full rollup count = %v", aggAll.Count())
	}
}

func TestCubeMultiFilter(t *testing.T) {
	c := newTestCube(t)
	c.Ingest([]int{0, 1, 2}, 5)
	c.Ingest([]int{0, 1, 1}, 6)
	c.Ingest([]int{3, 1, 2}, 7)
	agg, merges, err := c.Query(Filter{Dim: 0, Value: 0}, Filter{Dim: 2, Value: 2})
	if err != nil {
		t.Fatal(err)
	}
	if merges != 1 || agg.Count() != 1 {
		t.Errorf("multi-filter: merges=%d count=%v", merges, agg.Count())
	}
}

func TestCubeSchemaValidation(t *testing.T) {
	if _, err := New(Schema{Dims: []string{"a"}, Card: []int{1, 2}}, nil); err == nil {
		t.Error("mismatched schema must error")
	}
	if _, err := New(Schema{Dims: []string{"a"}, Card: []int{0}}, nil); err == nil {
		t.Error("zero cardinality must error")
	}
	if _, err := New(Schema{}, nil); err == nil {
		t.Error("empty schema must error")
	}
}

func TestCubeCoordinateValidation(t *testing.T) {
	c := newTestCube(t)
	defer func() {
		if recover() == nil {
			t.Error("out-of-range coordinate must panic")
		}
	}()
	c.Ingest([]int{99, 0, 0}, 1)
}

func TestCubeWorksWithAllSummaryTypes(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 6))
	for _, f := range sketch.Families(nil) {
		factory := f.New
		c, err := New(Schema{Dims: []string{"d"}, Card: []int{8}}, factory)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 4000; i++ {
			c.Ingest([]int{rng.IntN(8)}, rng.NormFloat64())
		}
		agg, _, err := c.Query()
		if err != nil {
			t.Fatalf("%s: %v", f.Name, err)
		}
		if agg.Count() != 4000 {
			t.Errorf("%s: rollup count = %v", f.Name, agg.Count())
		}
		if q := agg.Quantile(0.5); math.Abs(q) > 0.2 {
			t.Errorf("%s: median = %v, want ~0", f.Name, q)
		}
	}
}

func TestNewRejectsOverflowingSchema(t *testing.T) {
	_, err := New(Schema{
		Dims: []string{"a", "b", "c"},
		Card: []int{1 << 40, 1 << 40, 1 << 40},
	}, func() sketch.Summary { return sketch.NewMSketch(8) })
	if err == nil {
		t.Error("coordinate-space overflow accepted")
	}
}
