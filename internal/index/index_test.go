package index

import "testing"

func TestProjectionsBasics(t *testing.T) {
	p := New()
	p.ObserveVersionChunk(1, 2)
	p.ObserveVersionChunk(1, 5)
	p.ObserveVersionChunk(1, 5) // repeat of the last chunk dropped
	p.ObserveVersionChunk(2, 7)

	if got := p.VersionChunks(1); len(got) != 2 || got[0] != 2 || got[1] != 5 {
		t.Fatalf("VersionChunks(1) = %v", got)
	}
	if p.VersionChunks(9) != nil {
		t.Fatal("unknown entries non-nil")
	}
	if p.VersionSpan(1) != 2 || p.TotalVersionSpan() != 3 || p.NumVersions() != 2 {
		t.Fatalf("spans: %d %d %d", p.VersionSpan(1), p.TotalVersionSpan(), p.NumVersions())
	}
	if got := p.SizeBytes(); got != 12 {
		t.Fatalf("SizeBytes = %d", got)
	}
}
