package sketch

import (
	"math"
	"sort"
)

// RandomW is the randomized buffer quantile summary ("Random") evaluated by
// Wang, Luo, Yi and Cormode [52, 77] and found by Zhuang [84] to be the
// fastest mergeable summary in distributed settings. It keeps at most
// maxBufs sorted buffers of s elements each, tagged with a level; incoming
// items fill a level-L buffer directly (items at level L represent 2^L
// originals via the random collapse procedure). When buffer slots run out,
// the two lowest-level buffers are collapsed: merged and downsampled by a
// random alternating pick into a single buffer one level up.
type RandomW struct {
	s       int // buffer capacity
	maxBufs int
	n       float64
	fill    []float64 // current level-`level` fill buffer (unsorted)
	level   int       // level of the fill buffer
	skip    float64   // sampling: accept each item with prob 2^-level
	bufs    []rwBuf
	rng     uint64
}

type rwBuf struct {
	level int
	items []float64 // sorted
}

// NewRandomW returns a Random summary with buffer size s.
func NewRandomW(s int) *RandomW {
	if s < 4 {
		s = 4
	}
	if s%2 == 1 {
		s++
	}
	return &RandomW{s: s, maxBufs: 8, fill: make([]float64, 0, s), rng: seed}
}

// Name implements Summary.
func (r *RandomW) Name() string { return "RandomW" }

// Add implements Summary. Items are pre-sampled at rate 2^-level into the
// fill buffer; a full fill buffer becomes a regular level buffer.
func (r *RandomW) Add(x float64) {
	r.n++
	if r.level > 0 {
		// Keep with probability 2^-level.
		if splitmix64(&r.rng)&((1<<uint(r.level))-1) != 0 {
			return
		}
	}
	r.fill = append(r.fill, x)
	if len(r.fill) == r.s {
		r.sealFill()
	}
}

// sealFill promotes the fill buffer into the buffer set.
func (r *RandomW) sealFill() {
	items := make([]float64, len(r.fill))
	copy(items, r.fill)
	sort.Float64s(items)
	r.fill = r.fill[:0]
	r.place(rwBuf{level: r.level, items: items})
}

// place inserts a buffer, collapsing the two lowest-level buffers whenever
// the slot budget is exceeded, and raises the sampling level to match.
func (r *RandomW) place(b rwBuf) {
	r.bufs = append(r.bufs, b)
	for len(r.bufs) > r.maxBufs {
		r.collapseLowest()
	}
	// The input sampler tracks the lowest live level so fills stay
	// compatible with the collapse weights.
	lowest := r.lowestLevel()
	if lowest > r.level {
		r.level = lowest
	}
}

func (r *RandomW) lowestLevel() int {
	low := math.MaxInt32
	for _, b := range r.bufs {
		if b.level < low {
			low = b.level
		}
	}
	if low == math.MaxInt32 {
		return 0
	}
	return low
}

// collapseLowest frees one buffer slot. It prefers collapsing the lowest
// equal-level pair — the classic Random collapse (random-alternating halve
// to level+1), which preserves buffer sizes at ~s. Only when every buffer
// sits at a distinct level does it merge the two lowest, aligning the lower
// one upward by random subsampling first. Equal pairs re-form immediately
// after such a merge, so the unequal case stays rare and neither levels nor
// buffer sizes can ratchet away.
func (r *RandomW) collapseLowest() {
	sort.Slice(r.bufs, func(i, j int) bool { return r.bufs[i].level < r.bufs[j].level })
	for i := 0; i+1 < len(r.bufs); i++ {
		if r.bufs[i].level == r.bufs[i+1].level {
			a, b := r.bufs[i], r.bufs[i+1]
			out := halveRandom(&r.rng, mergeSorted(a.items, b.items))
			r.bufs = append(r.bufs[:i], r.bufs[i+1:]...)
			r.bufs[i] = rwBuf{level: a.level + 1, items: out}
			return
		}
	}
	a, b := r.bufs[0], r.bufs[1]
	items := a.items
	for lvl := a.level; lvl < b.level; lvl++ {
		items = halveRandom(&r.rng, items)
	}
	out := halveRandom(&r.rng, mergeSorted(items, b.items))
	r.bufs = append([]rwBuf{{level: b.level + 1, items: out}}, r.bufs[2:]...)
}

// halveRandom keeps every other element of a sorted slice starting at a
// random offset — an unbiased one-level downsample.
func halveRandom(rng *uint64, sorted []float64) []float64 {
	out := make([]float64, 0, (len(sorted)+1)/2)
	for i := randBit(rng); i < len(sorted); i += 2 {
		out = append(out, sorted[i])
	}
	return out
}

// Merge implements Summary: buffer lists concatenate; fill buffers replay.
func (r *RandomW) Merge(other Summary) error {
	o, ok := other.(*RandomW)
	if !ok {
		return ErrTypeMismatch
	}
	if o.s != r.s {
		return ErrTypeMismatch
	}
	for _, b := range o.bufs {
		cp := make([]float64, len(b.items))
		copy(cp, b.items)
		r.place(rwBuf{level: b.level, items: cp})
	}
	// Replay the other's fill items at its sampling level: they represent
	// 2^o.level originals each, so inject as a (partial) buffer.
	if len(o.fill) > 0 {
		cp := make([]float64, len(o.fill))
		copy(cp, o.fill)
		sort.Float64s(cp)
		r.place(rwBuf{level: o.level, items: cp})
	}
	r.n += o.n
	return nil
}

// Quantile implements Summary.
func (r *RandomW) Quantile(phi float64) float64 {
	type wv struct {
		v, w float64
	}
	items := make([]wv, 0, r.s*(len(r.bufs)+1))
	for _, v := range r.fill {
		items = append(items, wv{v, math.Pow(2, float64(r.level))})
	}
	for _, b := range r.bufs {
		w := math.Pow(2, float64(b.level))
		for _, v := range b.items {
			items = append(items, wv{v, w})
		}
	}
	if len(items) == 0 {
		return math.NaN()
	}
	sort.Slice(items, func(i, j int) bool { return items[i].v < items[j].v })
	total := 0.0
	for _, it := range items {
		total += it.w
	}
	target := phi * total
	cum := 0.0
	for _, it := range items {
		cum += it.w
		if cum >= target {
			return it.v
		}
	}
	return items[len(items)-1].v
}

// Count implements Summary.
func (r *RandomW) Count() float64 { return r.n }

// SizeBytes implements Summary.
func (r *RandomW) SizeBytes() int {
	n := len(r.fill)
	for _, b := range r.bufs {
		n += len(b.items)
	}
	return 24 + 8*n + 8*len(r.bufs)
}
