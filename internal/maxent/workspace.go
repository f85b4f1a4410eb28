package maxent

import (
	"runtime"

	"repro/internal/core"
	"repro/internal/linalg"
	"repro/internal/optimize"
)

// Workspace holds every scratch buffer a maximum-entropy solve needs — the
// Clenshaw–Curtis grids and basis rows, the potential's density and Hessian
// scratch, the Newton iterate/gradient/Cholesky working set, and the FFT
// buffer behind the final Chebyshev interpolation. Buffers are arena-style:
// each solve slices them out of one backing array that is rewound (not
// freed) at the next solve, so a warm workspace performs no internal
// allocations — only the returned Solution's own coefficient vectors are
// freshly allocated.
//
// A Workspace is not safe for concurrent use. The package-level Solve,
// SolveSketch and SelectBasis borrow workspaces from an internal free list
// (wsPool), so ordinary callers get the reuse for free; hold an explicit
// Workspace only to pin one to a dedicated solver loop.
type Workspace struct {
	f     []float64 // float arena
	fo    int       // arena offset
	fneed int       // high-water mark of the current solve

	rh     [][]float64 // row-header arena for grid basis matrices
	rho    int
	rhneed int

	z []complex128 // FFT scratch for the final interpolation

	// cross is the finest cross-domain node map built since the last reset
	// (arena memory) and crossKey the basis scalings it belongs to; see
	// crossNodes.
	cross    []float64
	crossKey crossKey

	newton optimize.NewtonWorkspace

	// trial and condWork are basis selection's bordered Gram matrix and its
	// condition screen's scratch, headers over arena memory.
	trial, condWork linalg.Dense
}

// NewWorkspace returns an empty workspace. Buffers are sized lazily: the
// first solve allocates, later solves of similar shape do not.
func NewWorkspace() *Workspace { return &Workspace{} }

// reset rewinds the arena, growing the backing arrays to the previous
// solve's high-water mark so the coming solve runs allocation-free.
func (w *Workspace) reset() {
	if w.fneed > len(w.f) {
		w.f = make([]float64, w.fneed)
	}
	if w.rhneed > len(w.rh) {
		w.rh = make([][]float64, w.rhneed)
	}
	w.fo, w.fneed = 0, 0
	w.rho, w.rhneed = 0, 0
	w.cross, w.crossKey = nil, crossKey{}
}

// floats hands out a zeroed float slice from the arena, falling back to a
// plain allocation when the arena is exhausted (the overflow is recorded so
// the next reset sizes the arena up).
func (w *Workspace) floats(n int) []float64 {
	w.fneed += n
	if w.fo+n > len(w.f) {
		return make([]float64, n)
	}
	s := w.f[w.fo : w.fo+n : w.fo+n]
	w.fo += n
	clear(s)
	return s
}

// rows hands out a row-header slice from the arena.
func (w *Workspace) rows(n int) [][]float64 {
	w.rhneed += n
	if w.rho+n > len(w.rh) {
		return make([][]float64, n)
	}
	s := w.rh[w.rho : w.rho+n : w.rho+n]
	w.rho += n
	for i := range s {
		s[i] = nil
	}
	return s
}

// fftScratch returns a complex scratch buffer of length ≥ n, reused across
// solves.
func (w *Workspace) fftScratch(n int) []complex128 {
	if cap(w.z) < n {
		w.z = make([]complex128, n)
	}
	return w.z[:n]
}

// workspacePool lends warm workspaces to the package-level entry points. It
// is a bounded free list the garbage collector cannot empty, not a sync.Pool:
// a daemon with a few MB of live heap collects tens of times a second, a
// sync.Pool drops what sat idle for two collections, and each refill re-grows
// a few-hundred-KB arena from nothing — so what a solve costs and allocates
// would depend on when the collector last ran. It retains at most GOMAXPROCS
// workspaces, one per solve that can be running at any instant: a borrower
// finding it empty builds a fresh one, and a workspace returned to a full
// list is left to the collector.
type workspacePool struct{ free chan *Workspace }

func (p *workspacePool) Get() *Workspace {
	select {
	case ws := <-p.free:
		return ws
	default:
		return NewWorkspace()
	}
}

func (p *workspacePool) Put(ws *Workspace) {
	select {
	case p.free <- ws:
	default:
	}
}

var wsPool = &workspacePool{free: make(chan *Workspace, runtime.GOMAXPROCS(0))}

// Solve finds the maximum-entropy density for the given basis using this
// workspace's buffers.
func (w *Workspace) Solve(b Basis, opts Options) (*Solution, error) {
	w.reset()
	return solveWS(w, b, opts)
}

// SolveSketch selects a basis for the sketch and solves the maximum-entropy
// problem using this workspace's buffers.
func (w *Workspace) SolveSketch(sk *core.Sketch, opts Options) (*Solution, error) {
	w.reset()
	if sk.IsEmpty() {
		return nil, core.ErrEmpty
	}
	if sk.Min == sk.Max {
		return PointMass(sk.Min), nil
	}
	b, err := selectBasisWS(w, sk)
	if err != nil {
		return nil, err
	}
	return solveWS(w, b, opts)
}

// SelectBasis chooses the solver basis for a sketch using this workspace's
// buffers; see the package-level SelectBasis for the heuristics.
func (w *Workspace) SelectBasis(sk *core.Sketch) (Basis, error) {
	w.reset()
	return selectBasisWS(w, sk)
}
