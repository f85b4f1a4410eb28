package maxent

import (
	"math"

	"repro/internal/core"
	"repro/internal/linalg"
)

// selectionGrid is the (coarse) grid order used for condition-number
// screening during basis selection. The Gram matrix entries are degree
// ≤ 2k polynomials of the basis functions, so a modest grid suffices.
const selectionGrid = 64

// SelectBasis chooses how many standard and log moments to use for a
// sketch, implementing the paper's heuristics (§4.3.1–4.3.2):
//
//  1. cap each family at its floating-point-stable order (Appendix B);
//  2. integrate in the log domain when the data spans ≥2 orders of
//     magnitude (long-tailed data);
//  3. greedily add one moment at a time, preferring the family whose next
//     Chebyshev moment is closest to its uniform-distribution expectation,
//     subject to the Gram/Hessian condition number staying below κmax.
//
// Selection has no input besides the sketch: a warm seed matters only to the
// solve, so the Options argument is ignored.
func SelectBasis(sk *core.Sketch, _ Options) (Basis, error) {
	ws := wsPool.Get()
	defer wsPool.Put(ws)
	return ws.SelectBasis(sk)
}

func selectBasisWS(ws *Workspace, sk *core.Sketch) (Basis, error) {
	return screenBasis(ws, sk, linalg.Cond2SymWork)
}

// screenBasis is selectBasisWS with its condition-number screen as a
// parameter, so tests can hold the eigenvalues-only screen to the Jacobi one
// it replaced: cond2 returns the 2-norm condition number of the symmetric
// matrix a, using work (same shape) as scratch.
func screenBasis(ws *Workspace, sk *core.Sketch, cond2 func(a, work *linalg.Dense) float64) (Basis, error) {
	kStd, kLog := sk.StableOrders()
	if kStd < 1 {
		kStd = 1
	}
	std, err := sk.Standardize(kStd)
	if err != nil {
		return Basis{}, err
	}
	var logStd *core.Standardized
	if kLog > 0 {
		logStd, err = sk.StandardizeLog(kLog)
		if err != nil {
			// Defensive: StableOrders said log moments exist.
			kLog = 0
			logStd = nil
		}
	}

	primary := DomainStd
	if kLog > 0 && sk.Min > 0 && sk.Max/sk.Min >= logRangeRatioForLogPrimary {
		primary = DomainLog
	}

	// Build the full candidate basis once; selection works on row subsets.
	full := Basis{Primary: primary, K1: kStd, K2: kLog, Std: std, Log: logStd}
	g := buildGridWS(ws, &full, selectionGrid, 1)
	dim := full.Dim()
	uni := g.uniformExpectationsInto(ws.floats(dim))
	targets := ws.floats(dim)
	full.targetsInto(targets)

	// score: distance of moment `row` from its uniform expectation.
	score := func(row int) float64 { return math.Abs(targets[row] - uni[row]) }

	// The Gram matrix of the accepted rows grows by one row and column per
	// accepted moment; a trial borders it with the candidate's column.
	rows := make([]int, 1, dim) // rows[0] = 0: always include the normalization row
	gram := linalg.Dense{Rows: 1, Cols: 1, Data: ws.floats(1)}
	gram.Data[0] = g.gramEntry(0, 0)
	accept := func(row int) bool {
		m := len(rows)
		// The trial and its scratch live in the workspace: handed to cond2
		// through a function value, stack matrices would escape per probe.
		trial, work := &ws.trial, &ws.condWork
		*trial = linalg.Dense{Rows: m + 1, Cols: m + 1, Data: ws.floats((m + 1) * (m + 1))}
		for a, ra := range rows {
			copy(trial.Data[a*(m+1):], gram.Data[a*m:(a+1)*m])
			v := g.gramEntry(ra, row)
			trial.Set(a, m, v)
			trial.Set(m, a, v)
		}
		trial.Set(m, m, g.gramEntry(row, row))
		*work = linalg.Dense{Rows: m + 1, Cols: m + 1, Data: ws.floats((m + 1) * (m + 1))}
		if cond2(trial, work) > maxCond {
			return false
		}
		rows, gram = append(rows, row), *trial
		return true
	}

	// k[d] terms of family d are in, of at most kmax[d]. Each step tries the
	// family whose next moment is closer to uniform first. A rejected family
	// is closed for good (kmax drops to k): κ cannot fall when a row is added
	// — Cauchy interlacing — so its next moment would be rejected again
	// against every larger accepted set.
	k, kmax, base := [2]int{}, [2]int{kStd, kLog}, [2]int{0, kStd}
	next := func(d Domain) int { return base[d] + k[d] + 1 } // family d's candidate row
	for advanced := true; advanced; {
		order := [2]Domain{DomainStd, DomainLog}
		if k[DomainLog] < kmax[DomainLog] &&
			(k[DomainStd] >= kmax[DomainStd] || score(next(DomainLog)) < score(next(DomainStd))) {
			order = [2]Domain{DomainLog, DomainStd}
		}
		advanced = false
		for _, d := range order {
			if k[d] >= kmax[d] {
				continue
			}
			if accept(next(d)) {
				k[d]++
				advanced = true
				break
			}
			kmax[d] = k[d]
		}
	}
	k1, k2 := k[DomainStd], k[DomainLog]
	if k1+k2 == 0 {
		// κmax rejected everything; fall back to the single most uniform
		// moment so the solver has at least one constraint.
		if kLog > 0 && (kStd == 0 || score(1+kStd) < score(1)) {
			k2 = 1
		} else {
			k1 = 1
		}
	}
	// Integrating in the log domain without any log-basis terms (or vice
	// versa with a zero-width domain) is pointless; fall back to std.
	if primary == DomainLog && logStd.HalfWidth == 0 {
		primary = DomainStd
	}
	if primary == DomainStd && std.HalfWidth == 0 && logStd != nil && logStd.HalfWidth > 0 {
		primary = DomainLog
	}
	return Basis{Primary: primary, K1: k1, K2: k2, Std: std, Log: logStd}, nil
}

// SolveSketch selects a basis for the sketch and solves the maximum-entropy
// problem. Degenerate sketches (empty range) short-circuit to a point mass.
// Selection and solve share one pooled Workspace, so steady-state calls
// allocate little beyond the returned Solution.
func SolveSketch(sk *core.Sketch, opts Options) (*Solution, error) {
	ws := wsPool.Get()
	defer wsPool.Put(ws)
	return ws.SolveSketch(sk, opts)
}
