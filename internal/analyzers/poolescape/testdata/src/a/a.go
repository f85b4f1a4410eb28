// Package a is the poolescape fixture: a miniature of the maxent solver's
// pooled workspace arena.
package a

import "sync"

type Workspace struct {
	grid []float64
	out  []float64
}

var wsPool = sync.Pool{New: func() any { return new(Workspace) }}

type solver struct {
	scratch *Workspace
}

var leaked *Workspace

var sink = make(chan *Workspace, 1)

// good is the blessed borrow pattern: Get, defer Put, return derived data.
func good(n int) []float64 {
	ws := wsPool.Get().(*Workspace)
	defer wsPool.Put(ws)
	ws.out = append(ws.out[:0], make([]float64, n)...)
	res := make([]float64, n)
	copy(res, ws.out)
	return res
}

// returnBorrow hands the loaned workspace to the caller.
func returnBorrow() *Workspace {
	ws := wsPool.Get().(*Workspace)
	return ws // want `pooled ws returned from returnBorrow`
}

// fieldEscape parks the borrow in a struct that outlives the call.
func fieldEscape(s *solver) {
	ws := wsPool.Get().(*Workspace)
	s.scratch = ws // want `pooled ws stored into field scratch`
	wsPool.Put(ws)
}

// globalEscape publishes the borrow.
func globalEscape() {
	ws := wsPool.Get().(*Workspace)
	leaked = ws // want `pooled ws stored into package variable leaked`
}

// elementEscape hides the borrow in a map.
func elementEscape(m map[string]*Workspace) {
	ws := wsPool.Get().(*Workspace)
	m["x"] = ws // want `pooled ws stored into a map or slice element`
}

// channelEscape ships the borrow to another goroutine.
func channelEscape() {
	ws := wsPool.Get().(*Workspace)
	sink <- ws // want `pooled ws sent on a channel`
}

// useAfterPut touches memory the pool may already have re-issued.
func useAfterPut() float64 {
	ws := wsPool.Get().(*Workspace)
	ws.grid = append(ws.grid[:0], 1, 2, 3)
	wsPool.Put(ws)
	return ws.grid[0] // want `pooled ws used after Put`
}

// reassigned stops being a borrow once overwritten from a fresh source.
func reassigned() *Workspace {
	ws := wsPool.Get().(*Workspace)
	wsPool.Put(ws)
	ws = new(Workspace)
	return ws
}

// allowed documents a deliberate long-lived borrow.
func allowed(s *solver) {
	ws := wsPool.Get().(*Workspace)
	//lint:allow poolescape solver owns the borrow and Puts it in Close
	s.scratch = ws
}

// freePool is a free list the collector cannot empty, like maxent's
// workspacePool: a named ...Pool type with Get and Put is held to the same
// rules as a sync.Pool.
type freePool struct{ free chan *Workspace }

func (p *freePool) Get() *Workspace {
	select {
	case ws := <-p.free:
		return ws
	default:
		return new(Workspace)
	}
}

func (p *freePool) Put(ws *Workspace) {
	select {
	case p.free <- ws:
	default:
	}
}

var listPool = &freePool{free: make(chan *Workspace, 2)}

// goodList is the blessed pattern on a free list.
func goodList() int {
	ws := listPool.Get()
	defer listPool.Put(ws)
	return len(ws.grid)
}

// listEscape returns a free-list borrow.
func listEscape() *Workspace {
	ws := listPool.Get()
	return ws // want `pooled ws returned from listEscape`
}

// listUseAfterPut touches a workspace the list may already have re-issued.
func listUseAfterPut() int {
	ws := listPool.Get()
	listPool.Put(ws)
	return len(ws.out) // want `pooled ws used after Put`
}

var _ = good
var _ = goodList
var _ = listEscape
var _ = listUseAfterPut
var _ = returnBorrow
var _ = fieldEscape
var _ = globalEscape
var _ = elementEscape
var _ = channelEscape
var _ = useAfterPut
var _ = reassigned
var _ = allowed
