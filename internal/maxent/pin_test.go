package maxent

import (
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"testing"

	"repro/internal/core"
)

// pinnedSolve is one rollup's recorded solve: the basis SelectBasis picks,
// then either the solver's error or the final grid order, the Newton
// iteration and objective evaluation counts, and the bits of
// Quantiles(goldenPhis).
type pinnedSolve struct {
	primary   Domain
	k1, k2    int
	err       string
	grid      int
	iters     int
	evals     int
	quantiles [5]uint64
}

// lognormalRollups returns the eight group_by rollups of a store holding
// exp(N(0,1))·(1+r) per region r: 1,600 observations each, folded in
// insertion order from a fixed PCG seed. Five of them escalate to the
// largest grid.
func lognormalRollups() []*core.Sketch {
	rng := rand.New(rand.NewPCG(3, 4))
	out := make([]*core.Sketch, 8)
	for r := range out {
		sk := core.New(core.DefaultK)
		for i := 0; i < 1600; i++ {
			sk.Add(math.Exp(rng.NormFloat64()) * float64(1+r))
		}
		out[r] = sk
	}
	return out
}

// sketchFromBits rebuilds an order-10 sketch from the bit patterns of its
// min, max, count (also the log count: every value is positive), power sums
// and log power sums.
func sketchFromBits(min, max, count uint64, pow, logPow [10]uint64) *core.Sketch {
	sk := core.New(10)
	sk.Min, sk.Max = math.Float64frombits(min), math.Float64frombits(max)
	sk.Count = math.Float64frombits(count)
	sk.LogCount = sk.Count
	for i := range pow {
		sk.Pow[i] = math.Float64frombits(pow[i])
		sk.LogPow[i] = math.Float64frombits(logPow[i])
	}
	return sk
}

// seed23Rollups are the query_cold prefixes svc02.r5.az1. and svc02.r5.az3.
// at benchmark seed 23 (2,000 values each), folded by a 16-stripe store in
// its prefix order: the rollups whose solves were the p99 of that run, when
// Newton still spent 250-odd iterations on each. Both escalate to the
// largest grid.
func seed23Rollups() []namedSketch {
	return []namedSketch{
		{"seed23/svc02.r5.az1.", sketchFromBits(0x3f291a6fe86e4e00, 0x40276529b420948b, 0x409f400000000000,
			[10]uint64{0x409ede2e950480b0, 0x40ae1001c210e232, 0x40c6c14e8e2df329, 0x40e9df49bbefa232, 0x4115b8295f6e4468,
				0x414837552cca8f14, 0x417f6b4e4d89a15b, 0x41b5d049b5614e0f, 0x41ef2d1054488aac, 0x42268e6de6871fd4},
			[10]uint64{0xc09173023732723a, 0x40ac5afce7a1a185, 0xc0c1ea477065aa62, 0x40e1eec79b4868f5, 0xc104ad0cf048b573,
				0x412d1c6349d7e692, 0xc1575938061b7ea3, 0x4184aa676c61f741, 0xc1b3815a8bb4a24e, 0x41e3337171139f7d})},
		{"seed23/svc02.r5.az3.", sketchFromBits(0x3f34f594618fc000, 0x40295c24a81b5aec, 0x409f400000000000,
			[10]uint64{0x409f6cc7dd358a2f, 0x40aff0f42bb6d934, 0x40ca5c51ff158a36, 0x40f1161deffb1db2, 0x4120581b2aa76633,
				0x415426c0470e4219, 0x418c55abaab4bc19, 0x41c530adbe819158, 0x42004ff4d6cfadf4, 0x423977f74e570b77},
			[10]uint64{0xc091dd5249b07b55, 0x40af056e5b523259, 0xc0c571fc1fa088cd, 0x40e6cd608446e9a6, 0xc10af6c02ce8e946,
				0x413263e684b63e51, 0xc15b41e0f343d0dc, 0x41859db730cb10cf, 0xc1b2044ffb15fd4b, 0x41df3c46fca7f3ad})},
	}
}

// pinnedSketches is every rollup pinnedSolves records, in its order.
func pinnedSketches() []namedSketch {
	var out []namedSketch
	for r, sk := range lognormalRollups() {
		out = append(out, namedSketch{fmt.Sprintf("lognormal/r%d", r), sk})
	}
	return append(out, seed23Rollups()...)
}

// pinnedSolves is the recorded solve of each pinnedSketches rollup, in its
// order. A change meant to move them re-records the literals the failing
// test prints.
var pinnedSolves = []pinnedSolve{
	{DomainLog, 10, 1, "", 1024, 21, 24, [5]uint64{0x3fb8370d6e8580e9, 0x3fd231a354eb2eff, 0x3ff04a2e61bccd65, 0x400c1853523f2c9d, 0x4026e48bad63f80f}},
	{DomainLog, 10, 1, "", 1024, 55, 198, [5]uint64{0x3fc8f2323e063d67, 0x3fe1e77dff7d0f8e, 0x3ffeffe53ab700ba, 0x401cd598e3f49858, 0x40341ff1ad0612c9}},
	{DomainLog, 10, 1, "", 1024, 24, 29, [5]uint64{0x3fd31d0a39eac851, 0x3feb3ceae9847ae2, 0x4007e2359a8dd256, 0x40254f2a8a3fb204, 0x403cefe840797a83}},
	{DomainLog, 10, 1, "", 256, 9, 12, [5]uint64{0x3fd8761d25a13148, 0x3ff1e53256006165, 0x401040fd71427b3e, 0x402bdfe7b8720c17, 0x40448cb8a3ad2e3f}},
	{DomainLog, 10, 1, "", 512, 13, 15, [5]uint64{0x3fdbf34cb5762217, 0x3ff5130311e3937e, 0x40133f93fd6496bd, 0x4030fb4685b8fa5b, 0x4048b4f637ab0c7a}},
	{DomainLog, 10, 1, "", 1024, 36, 42, [5]uint64{0x3fe02d979ed85088, 0x3ff9a0036ab3ee32, 0x40184242fec60c22, 0x40365c67e1aa1c6e, 0x404fdaa50fc36954}},
	{DomainLog, 10, 1, "", 512, 13, 15, [5]uint64{0x3fe5e5f1e958fb66, 0x4000a46c36263c5c, 0x401cd3362106dbc2, 0x403875b570f95649, 0x40524331cb08c972}},
	{DomainLog, 10, 1, "", 1024, 32, 38, [5]uint64{0x3fe7703c4b23b1a5, 0x40017f4017d475a7, 0x401fbd7eb6a99905, 0x403b52d6737da26d, 0x4054035569d8f2c2}},
	{DomainLog, 10, 2, "", 1024, 35, 119, [5]uint64{0x3f8cce1c04ad991d, 0x3fbcbc79a977b437, 0x3fe642e2780d5565, 0x40021bb4afcf492f, 0x40115d7baf2ac881}},
	{DomainLog, 10, 2, "", 1024, 41, 206, [5]uint64{0x3f834c81fe715738, 0x3fba830a604f461d, 0x3fe6a869bfc0da3e, 0x400241fa283de780, 0x40127973db9cab6e}},
}

// TestPinnedSolves holds the heavy-tailed rollups to their recorded solves
// bit for bit: the same basis, grid, iteration and evaluation counts, and
// quantiles. The recorded values are amd64's; an architecture that fuses
// multiply-adds rounds differently and takes another Newton path.
func TestPinnedSolves(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("pinned bits were recorded on amd64, not %s", runtime.GOARCH)
	}
	cases := pinnedSketches()
	if len(cases) != len(pinnedSolves) {
		t.Fatalf("%d pinned solves for %d rollups", len(pinnedSolves), len(cases))
	}
	for i, c := range cases {
		if got := pinOf(t, c.sk); got != pinnedSolves[i] {
			t.Errorf("%s: solved %s, want %+v", c.name, got, pinnedSolves[i])
		}
	}
}

func pinOf(t *testing.T, sk *core.Sketch) pinnedSolve {
	t.Helper()
	b, err := SelectBasis(sk, Options{})
	if err != nil {
		t.Fatal(err)
	}
	p := pinnedSolve{primary: b.Primary, k1: b.K1, k2: b.K2}
	sol, err := SolveSketch(sk, Options{})
	if err != nil {
		p.err = err.Error()
		return p
	}
	p.grid, p.iters, p.evals = sol.GridUsed, sol.Iterations, sol.FuncEvals
	for j, q := range sol.Quantiles(goldenPhis) {
		p.quantiles[j] = math.Float64bits(q)
	}
	return p
}

// String renders p as a pinnedSolves literal.
func (p pinnedSolve) String() string {
	dom := map[Domain]string{DomainStd: "DomainStd", DomainLog: "DomainLog"}[p.primary]
	return fmt.Sprintf("{%s, %d, %d, %q, %d, %d, %d, [5]uint64{%#x, %#x, %#x, %#x, %#x}}", dom, p.k1, p.k2, p.err, p.grid,
		p.iters, p.evals, p.quantiles[0], p.quantiles[1], p.quantiles[2], p.quantiles[3], p.quantiles[4])
}

// TestSolveEvaluationBound: every golden and pinned rollup that converges
// does so within maxSolveEvals objective evaluations. A Newton run that
// keeps stepping after rounding has hidden every decrease spends thousands
// (seed 23's az3 rollup once took 7,114) for an answer it already had. The
// corpus's two retail/merged* rollups are §6.2.3's near-discrete case: they
// do not converge, so the bound does not apply to them.
func TestSolveEvaluationBound(t *testing.T) {
	const maxSolveEvals = 500
	for _, c := range append(goldenCorpus(), pinnedSketches()...) {
		sol, err := SolveSketch(c.sk, Options{})
		if err != nil {
			continue
		}
		if sol.FuncEvals > maxSolveEvals {
			t.Errorf("%s: %d objective evaluations (%d Newton iterations, grid %d), want <= %d",
				c.name, sol.FuncEvals, sol.Iterations, sol.GridUsed, maxSolveEvals)
		}
	}
}

// foldOrderPair is one rollup folded two ways: benchmark seed 17's
// dash.svc06.r3.az0. (2,000 Power values over ten keys) summed in key order,
// and in a 16-stripe store's order. The sums differ only in their last bits,
// as a coordinator's merge of node partials differs from a single store's.
func foldOrderPair() [2]*core.Sketch {
	return [2]*core.Sketch{
		sketchFromBits(0x3fb374bc6a7ef9db, 0x401f2cb4c3267a25, 0x409f400000000000,
			[10]uint64{0x40a339fc1b0309fa, 0x40bae5109fd43d67, 0x40dc5b444d1a0d82, 0x4101b47a50bdeb31, 0x41280a96d279a218,
				0x415136e464db4986, 0x4179ac94853ade9d, 0x41a3cf3a1328525e, 0x41cf7ceef6388b68, 0x41f9aee195261ada},
			[10]uint64{0xc0802081e842b620, 0x409c07bdbaec4abd, 0xc0727cfd4affc78d, 0x40a59a15839d2806, 0x4083a406828b8d1e,
				0x40b621407fe949ec, 0x40aa454a648bef1d, 0x40ccc2247c95459d, 0x40c3b030a04cd111, 0x40e7488be46f2eee}),
		sketchFromBits(0x3fb374bc6a7ef9db, 0x401f2cb4c3267a25, 0x409f400000000000,
			[10]uint64{0x40a339fc1b0309fa, 0x40bae5109fd43d67, 0x40dc5b444d1a0d81, 0x4101b47a50bdeb32, 0x41280a96d279a219,
				0x415136e464db4987, 0x4179ac94853ade9d, 0x41a3cf3a1328525e, 0x41cf7ceef6388b67, 0x41f9aee195261ada},
			[10]uint64{0xc0802081e842b61f, 0x409c07bdbaec4abe, 0xc0727cfd4affc78c, 0x40a59a15839d2806, 0x4083a406828b8d1e,
				0x40b621407fe949ec, 0x40aa454a648bef1d, 0x40ccc2247c95459d, 0x40c3b030a04cd110, 0x40e7488be46f2eed}),
	}
}

// TestFoldOrderKeepsSolve: two folds of one rollup solve to the same basis
// and to quantiles within 1e-9 relative, so a cluster answers as a single
// store does. Stopping Newton on a stall without trying the undamped step
// failed this: the 16-stripe fold stalled at ‖∇‖∞ = 1.01e-8, just past the
// stall tolerance, fell back to a smaller basis and moved the median by 4 %.
func TestFoldOrderKeepsSolve(t *testing.T) {
	var sols [2]*Solution
	for i, sk := range foldOrderPair() {
		sol, err := SolveSketch(sk, Options{})
		if err != nil {
			t.Fatalf("fold %d: %v", i, err)
		}
		sols[i] = sol
	}
	a, b := sols[0], sols[1]
	if a.Basis.K1 != b.Basis.K1 || a.Basis.K2 != b.Basis.K2 {
		t.Fatalf("bases (%d,%d) and (%d,%d)", a.Basis.K1, a.Basis.K2, b.Basis.K1, b.Basis.K2)
	}
	qa, qb := a.Quantiles(goldenPhis), b.Quantiles(goldenPhis)
	for j := range qa {
		if d := math.Abs(qa[j] - qb[j]); d > 1e-9*math.Abs(qa[j]) {
			t.Errorf("q(%v): %v and %v", goldenPhis[j], qa[j], qb[j])
		}
	}
}
