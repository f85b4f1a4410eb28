package cube

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/sketch"
)

// Schema names the cube's dimensions and their cardinalities.
type Schema struct {
	Dims []string
	Card []int
}

// Strides returns the mixed-radix strides for packing coordinates.
func (s Schema) strides() []int {
	st := make([]int, len(s.Card))
	acc := 1
	for i := range s.Card {
		st[i] = acc
		acc *= s.Card[i]
	}
	return st
}

// Cell is one pre-aggregated cube entry.
type Cell struct {
	Coords  []int
	Summary sketch.Summary
	Sum     float64
	Count   float64
}

// Cube is an in-memory data cube with pluggable summary aggregators.
type Cube struct {
	schema  Schema
	strides []int
	factory func() sketch.Summary
	cells   map[uint64]*Cell
	// sorted caches the packed-key-ordered cell list that deterministic
	// aggregation iterates; cell creation invalidates it.
	sorted []*Cell
}

// New builds an empty cube. factory creates the per-cell summary. The
// coordinate space (the product of all cardinalities) must fit in an int,
// since cell keys are mixed-radix packed — overflow would silently collide
// distinct coordinates into one cell.
func New(schema Schema, factory func() sketch.Summary) (*Cube, error) {
	if len(schema.Dims) == 0 || len(schema.Dims) != len(schema.Card) {
		return nil, fmt.Errorf("cube: schema dims/card mismatch")
	}
	cells := 1
	for _, c := range schema.Card {
		if c <= 0 {
			return nil, fmt.Errorf("cube: non-positive cardinality")
		}
		if cells > math.MaxInt/c {
			return nil, fmt.Errorf("cube: coordinate space overflows (product of cardinalities exceeds %d)", math.MaxInt)
		}
		cells *= c
	}
	return &Cube{
		schema:  schema,
		strides: schema.strides(),
		factory: factory,
		cells:   make(map[uint64]*Cell),
	}, nil
}

// key packs coordinates; panics on out-of-range values (programmer error).
func (c *Cube) key(coords []int) uint64 {
	if len(coords) != len(c.strides) {
		panic("cube: coordinate arity mismatch")
	}
	k := uint64(0)
	for i, v := range coords {
		if v < 0 || v >= c.schema.Card[i] {
			panic(fmt.Sprintf("cube: coordinate %d out of range: %d", i, v))
		}
		k += uint64(v) * uint64(c.strides[i])
	}
	return k
}

// Ingest routes one value into its cell, creating the cell on first touch.
func (c *Cube) Ingest(coords []int, value float64) {
	k := c.key(coords)
	cell, ok := c.cells[k]
	if !ok {
		cell = &Cell{
			Coords:  append([]int{}, coords...),
			Summary: c.factory(),
		}
		c.cells[k] = cell
		c.sorted = nil
	}
	cell.Summary.Add(value)
	cell.Sum += value
	cell.Count++
}

// NumCells returns the number of materialized cells.
func (c *Cube) NumCells() int { return len(c.cells) }

// Filter restricts a query to cells with the given value on a dimension.
// A query takes zero or more filters; unmentioned dimensions roll up.
type Filter struct {
	Dim   int
	Value int
}

func matches(cell *Cell, filters []Filter) bool {
	for _, f := range filters {
		if cell.Coords[f.Dim] != f.Value {
			return false
		}
	}
	return true
}

// sortedCells returns the materialized cells in ascending packed-key
// order. Aggregations iterate cells through this so merge order — and
// therefore the floating-point rounding of the merged moments — is
// deterministic for a given cube, not subject to map iteration order.
// The order is computed once per cube state and cached (invalidated when
// a cell is created), so repeated queries do not pay a per-call sort.
func (c *Cube) sortedCells() []*Cell {
	if c.sorted != nil {
		return c.sorted
	}
	keys := make([]uint64, 0, len(c.cells))
	for k := range c.cells {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	out := make([]*Cell, len(keys))
	for i, k := range keys {
		out[i] = c.cells[k]
	}
	c.sorted = out
	return out
}

// Query merges every matching cell's summary into a fresh aggregate — the
// Druid-style roll-up. It returns the merged summary and the number of
// merges performed. Cells merge in packed-key order, so the result is
// bit-deterministic for a given cube.
func (c *Cube) Query(filters ...Filter) (sketch.Summary, int, error) {
	agg := c.factory()
	merges := 0
	for _, cell := range c.sortedCells() {
		if matches(cell, filters) {
			if err := agg.Merge(cell.Summary); err != nil {
				return nil, merges, err
			}
			merges++
		}
	}
	return agg, merges, nil
}

// QuerySum is the native sum/count aggregation baseline.
func (c *Cube) QuerySum(filters ...Filter) (sum, count float64) {
	for _, cell := range c.cells {
		if matches(cell, filters) {
			sum += cell.Sum
			count += cell.Count
		}
	}
	return sum, count
}
