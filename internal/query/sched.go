package query

import (
	"context"
	"sync"
	"sync/atomic"
)

// run is the per-request scheduler every executor shares: Engine.Execute
// over the local store, Evaluator.Execute over a coordinator's merged
// partials. Its unit is a rollup. resolve(i) materializes task i's groups
// — one store walk, or one merge of node partials — as a unit of its own,
// and sets the task's error envelope (alongside the groups when a
// coordinator answers partial data). Each group it returns then becomes a
// unit that evaluates every subquery referencing the task on that group,
// writing the preallocated slot results[qi].Groups[gi]. A windowed
// selection's positions stay one unit, evaluated oldest first, so each
// position's solve can warm-start from its predecessor's θ.
//
// At most e.workers units run at once. ctx is checked before each unit; a
// task any of whose units found it done answers every referencing
// subquery with the context's error instead of groups. Units write
// disjoint slots and every solve is a function of its rollup alone, so the
// response is the same bytes at any worker count and interleaving.
func (e *Engine) run(ctx context.Context, req *Request, tasks []*Task, results []Result, resolve func(i int) ([]*group, *Error)) {
	stopped := make([]atomic.Bool, len(tasks))
	p := pool{limit: max(e.workers, 1)}
	for i, t := range tasks {
		p.submit(func() {
			if ctx.Err() != nil {
				stopped[i].Store(true)
				return
			}
			groups, err := resolve(i)
			for _, qi := range t.Subqueries {
				results[qi].Error = err
				if len(groups) > 0 {
					results[qi].Groups = make([]GroupResult, len(groups))
				}
			}
			// unit evaluates groups [lo, hi) for every subquery of the task.
			unit := func(lo, hi int) func() {
				return func() {
					if ctx.Err() != nil {
						stopped[i].Store(true)
						return
					}
					for gi := lo; gi < hi; gi++ {
						for _, qi := range t.Subqueries {
							results[qi].Groups[gi] = e.evalGroup(groups[gi], &req.Queries[qi])
						}
					}
				}
			}
			if t.Sel.Window != nil {
				p.submit(unit(0, len(groups)))
				return
			}
			for gi := range groups {
				p.submit(unit(gi, gi+1))
			}
		})
	}
	p.wait()
	for i, t := range tasks {
		if stopped[i].Load() {
			err := ctxError(ctx.Err())
			for _, qi := range t.Subqueries {
				results[qi].Groups, results[qi].Error = nil, err
			}
		}
	}
}

// pool runs units of work on at most limit goroutines, first in first
// out. A unit may submit further units; wait returns once every submitted
// unit has run. Goroutines start on demand and exit when the queue runs
// dry, so a request costs no more goroutines than it has units to overlap.
type pool struct {
	limit int

	mu     sync.Mutex
	queue  []func()
	active int
	wg     sync.WaitGroup
}

func (p *pool) submit(f func()) {
	p.mu.Lock()
	if p.active >= p.limit {
		p.queue = append(p.queue, f)
		p.mu.Unlock()
		return
	}
	p.active++
	p.mu.Unlock()
	p.wg.Add(1)
	go p.work(f)
}

func (p *pool) work(f func()) {
	defer p.wg.Done()
	for {
		f()
		p.mu.Lock()
		if len(p.queue) == 0 {
			p.active--
			p.mu.Unlock()
			return
		}
		f = p.queue[0]
		p.queue = p.queue[1:]
		p.mu.Unlock()
	}
}

func (p *pool) wait() { p.wg.Wait() }
