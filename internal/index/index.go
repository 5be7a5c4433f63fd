// Package index implements the two lossy projections of paper §2.4 (Fig 3b):
// the version→chunks mapping (which chunks contain records of a given
// version) and the key→chunks mapping (which chunks contain records of a
// given primary key). Query processing intersects/consults these to decide
// what to fetch; they are lossy in that a retrieved chunk may turn out to
// contain no records of interest for key-and-version queries.
//
// The projections are held as in-memory hash maps (the paper measures tens
// of MB even for its biggest datasets) and are never persisted: they are a
// function of the chunk maps and chunk contents, so the engine rebuilds them
// on load instead of keeping a second copy that a crash could leave out of
// step with the chunks.
package index

import (
	"rstore/internal/chunk"
	"rstore/internal/types"
)

// Projections is the pair of lossy indexes.
type Projections struct {
	versionChunks map[types.VersionID][]chunk.ID
	keyChunks     map[types.Key][]chunk.ID
}

// New returns empty projections.
func New() *Projections {
	return &Projections{
		versionChunks: make(map[types.VersionID][]chunk.ID),
		keyChunks:     make(map[types.Key][]chunk.ID),
	}
}

// ObserveVersionChunk records that version v has records in chunk c.
// *Projections implements chunk.Projection: a chunk.Layout — the only caller
// of this and AddKeyChunk — fills both indexes while it lays chunks out and
// places versions, always in ascending chunk order, which is what keeps
// every adjacency list sorted. A repeat of the last chunk is dropped.
func (p *Projections) ObserveVersionChunk(v types.VersionID, c chunk.ID) {
	l := p.versionChunks[v]
	if n := len(l); n > 0 && l[n-1] == c {
		return
	}
	p.versionChunks[v] = append(l, c)
}

// AddKeyChunk records that primary key k has records in chunk c.
func (p *Projections) AddKeyChunk(k types.Key, c chunk.ID) {
	l := p.keyChunks[k]
	if n := len(l); n > 0 && l[n-1] == c {
		return
	}
	p.keyChunks[k] = append(l, c)
}

// VersionChunks returns the chunks containing records of version v (sorted).
// The slice is shared; callers must not mutate.
func (p *Projections) VersionChunks(v types.VersionID) []chunk.ID {
	return p.versionChunks[v]
}

// KeyChunks returns the chunks containing records of primary key k (sorted).
func (p *Projections) KeyChunks(k types.Key) []chunk.ID {
	return p.keyChunks[k]
}

// Intersect returns the chunks appearing in both projections for (k, v) —
// the "index-ANDing" of §2.4 used by record and range retrieval.
func (p *Projections) Intersect(k types.Key, v types.VersionID) []chunk.ID {
	a, b := p.keyChunks[k], p.versionChunks[v]
	var out []chunk.ID
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}

// VersionSpan returns |chunks(v)| — the span of a full version retrieval.
func (p *Projections) VersionSpan(v types.VersionID) int { return len(p.versionChunks[v]) }

// KeySpan returns |chunks(k)| — the span of a record-evolution query.
func (p *Projections) KeySpan(k types.Key) int { return len(p.keyChunks[k]) }

// TotalVersionSpan sums the span over all versions — the headline
// partitioning-quality metric of the paper's Figs 8–10.
func (p *Projections) TotalVersionSpan() int {
	total := 0
	for _, l := range p.versionChunks {
		total += len(l)
	}
	return total
}

// TotalKeySpan sums the key span over all keys.
func (p *Projections) TotalKeySpan() int {
	total := 0
	for _, l := range p.keyChunks {
		total += len(l)
	}
	return total
}

// NumVersions returns how many versions have at least one chunk.
func (p *Projections) NumVersions() int { return len(p.versionChunks) }

// NumKeys returns how many keys have at least one chunk.
func (p *Projections) NumKeys() int { return len(p.keyChunks) }

// SizeBytes estimates the in-memory footprint of both projections as the
// paper reports it: the adjacency lists stored as 4-byte ids.
func (p *Projections) SizeBytes() (versionIdx, keyIdx int64) {
	for _, l := range p.versionChunks {
		versionIdx += int64(4 * len(l))
	}
	for k, l := range p.keyChunks {
		keyIdx += int64(len(k)) + int64(4*len(l))
	}
	return versionIdx, keyIdx
}
