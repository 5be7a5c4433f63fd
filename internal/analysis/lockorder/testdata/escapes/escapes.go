package escapes

import "sync"

type T struct {
	a sync.Mutex
	b sync.Mutex
	c sync.Mutex
	d sync.Mutex
}

// The escape below carries no reason, so it must be reported and must not
// suppress the undeclared-edge finding.
func (t *T) Bad() {
	t.a.Lock()
	//lint:rstore-vet lockorder:
	t.b.Lock()
	t.b.Unlock()
	t.a.Unlock()
}

// A reasoned escape silences its own site of the c -> d edge and no other.
func (t *T) Escaped() {
	t.c.Lock()
	//lint:rstore-vet lockorder: fixture exercising the reasoned escape hatch
	t.d.Lock()
	t.d.Unlock()
	t.c.Unlock()
}

// The second site of the escaped edge carries no escape: it is reported.
func (t *T) Unescaped() {
	t.c.Lock()
	t.d.Lock() // the one c -> d finding
	t.d.Unlock()
	t.c.Unlock()
}
