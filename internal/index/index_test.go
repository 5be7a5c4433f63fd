package index

import "testing"

func TestProjectionsBasics(t *testing.T) {
	p := New()
	p.ObserveVersionChunk(1, 2)
	p.ObserveVersionChunk(1, 5)
	p.ObserveVersionChunk(1, 5) // repeat of the last chunk dropped
	p.ObserveVersionChunk(2, 7)
	p.AddKeyChunk("a", 2)
	p.AddKeyChunk("a", 2)
	p.AddKeyChunk("a", 5)
	p.AddKeyChunk("b", 7)

	if got := p.VersionChunks(1); len(got) != 2 || got[0] != 2 || got[1] != 5 {
		t.Fatalf("VersionChunks(1) = %v", got)
	}
	if got := p.KeyChunks("a"); len(got) != 2 || got[0] != 2 || got[1] != 5 {
		t.Fatalf("KeyChunks(a) = %v", got)
	}
	if p.VersionChunks(9) != nil || p.KeyChunks("zz") != nil {
		t.Fatal("unknown entries non-nil")
	}
	if p.VersionSpan(1) != 2 || p.KeySpan("b") != 1 {
		t.Fatal("span accessors")
	}
	if p.TotalVersionSpan() != 3 || p.TotalKeySpan() != 3 {
		t.Fatalf("totals: %d %d", p.TotalVersionSpan(), p.TotalKeySpan())
	}
	if p.NumVersions() != 2 || p.NumKeys() != 2 {
		t.Fatal("counts")
	}
	vb, kb := p.SizeBytes()
	if vb != 12 || kb != 4*3+2 {
		t.Fatalf("SizeBytes = %d, %d", vb, kb)
	}
}

func TestIntersect(t *testing.T) {
	p := New()
	for _, c := range []uint32{1, 3, 5, 9} {
		p.ObserveVersionChunk(4, c)
	}
	for _, c := range []uint32{2, 3, 9, 12} {
		p.AddKeyChunk("k", c)
	}
	got := p.Intersect("k", 4)
	if len(got) != 2 || got[0] != 3 || got[1] != 9 {
		t.Fatalf("Intersect = %v", got)
	}
	if p.Intersect("zz", 4) != nil {
		t.Fatal("intersect with unknown key")
	}
}
