package src

import "sync"

type T struct {
	a sync.Mutex
	b sync.Mutex
	c sync.RWMutex
}

// The fixture table declares a -> b, so this nesting is ranked.
func (t *T) Declared() {
	t.a.Lock()
	t.b.Lock()
	t.b.Unlock()
	t.a.Unlock()
}

// The reverse order is not declared.
func (t *T) Undeclared() {
	t.b.Lock()
	t.a.Lock() // want "lock-order edge rstore/internal/server\\.T\\.b -> rstore/internal/server\\.T\\.a is not in the lock-rank table"
	t.a.Unlock()
	t.b.Unlock()
}

// Same-name nesting is unrankable regardless of the table.
func (t *T) Recursive() {
	t.a.Lock()
	t.a.Lock() // want "rstore/internal/server\\.T\\.a is acquired while already held"
	t.a.Unlock()
	t.a.Unlock()
}

func (t *T) lockC() {
	t.c.RLock()
	defer t.c.RUnlock()
}

// The edge surfaces through the package-local call graph: lockC may take
// c, and it is called with a held.
func (t *T) Transitive() {
	t.a.Lock()
	defer t.a.Unlock()
	t.lockC() // want "lock-order edge rstore/internal/server\\.T\\.a -> rstore/internal/server\\.T\\.c \\(via the call to lockC\\)"
}

// An early-exit guard's unlock is a dead end: it must not erase the held
// set for the fallthrough path.
func (t *T) Guarded(cond bool) {
	t.c.Lock()
	if cond {
		t.c.Unlock()
		return
	}
	t.b.Lock() // want "lock-order edge rstore/internal/server\\.T\\.c -> rstore/internal/server\\.T\\.b is not in the lock-rank table"
	t.b.Unlock()
	t.c.Unlock()
}

// TryLock never blocks, so it closes no deadlock cycle: no edge for the
// undeclared c -> a nesting.
func (t *T) Opportunistic() {
	t.c.Lock()
	if t.a.TryLock() {
		t.a.Unlock()
	}
	t.c.Unlock()
}

// A goroutine spawned while a is held acquires on its own schedule: no
// edge. Sequential reacquisition after an unlock is no edge either.
func (t *T) Unordered() {
	t.a.Lock()
	go func() {
		t.c.Lock()
		t.c.Unlock()
	}()
	t.a.Unlock()
	t.c.Lock()
	t.c.Unlock()
}

// locked runs fn with a held: the shape of core's Store.locked.
func (t *T) locked(fn func()) {
	t.a.Lock()
	defer t.a.Unlock()
	fn()
}

// A literal passed to locked runs with a held, so the call in it that takes
// c is the edge a -> c; the declared a -> b beside it is not reported.
func (t *T) ThroughClosure() {
	t.locked(func() {
		t.b.Lock()
		t.b.Unlock()
		t.lockC() // want "lock-order edge rstore/internal/server\\.T\\.a -> rstore/internal/server\\.T\\.c \\(via the call to lockC\\)"
	})
}

// The same call outside the literal holds nothing.
func (t *T) OutsideClosure() {
	t.locked(func() {})
	t.lockC()
}
