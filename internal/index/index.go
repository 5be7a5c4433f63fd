// Package index implements the version→chunks projection of paper §2.4
// (Fig 3b): which chunks contain records of a given version — the span a full
// or partial version retrieval consults. It is lossy in the paper's sense (it
// names chunks, not slots); the chunk maps say which slots.
//
// The paper's second projection, key→chunks, is not kept: the application
// server holds every record's location (chunk.Layout.Loc) and every key's
// records (corpus.KeyRecords), which answer "where are this key's records"
// exactly, so key-and-version queries resolve to slots without index-ANDing
// and without fetching a chunk that turns out to hold nothing of interest.
//
// The projection is an in-memory hash map (the paper measures tens of MB even
// for its biggest datasets) and is never persisted: it is a function of the
// chunk maps, so the engine rebuilds it on load instead of keeping a second
// copy that a crash could leave out of step with the chunks.
package index

import (
	"rstore/internal/chunk"
	"rstore/internal/types"
)

// Projections is the version→chunks index.
type Projections struct {
	versionChunks map[types.VersionID][]chunk.ID
}

// New returns an empty projection.
func New() *Projections {
	return &Projections{versionChunks: make(map[types.VersionID][]chunk.ID)}
}

// ObserveVersionChunk records that version v has records in chunk c.
// *Projections implements chunk.Projection: a chunk.Layout — the only caller
// — fills it while it places versions, always in ascending chunk order, which
// is what keeps every adjacency list sorted. A repeat of the last chunk is
// dropped.
func (p *Projections) ObserveVersionChunk(v types.VersionID, c chunk.ID) {
	l := p.versionChunks[v]
	if n := len(l); n > 0 && l[n-1] == c {
		return
	}
	p.versionChunks[v] = append(l, c)
}

// VersionChunks returns the chunks containing records of version v (sorted).
// The slice is shared; callers must not mutate.
func (p *Projections) VersionChunks(v types.VersionID) []chunk.ID {
	return p.versionChunks[v]
}

// VersionSpan returns |chunks(v)| — the span of a full version retrieval.
func (p *Projections) VersionSpan(v types.VersionID) int { return len(p.versionChunks[v]) }

// TotalVersionSpan sums the span over all versions — the headline
// partitioning-quality metric of the paper's Figs 8–10.
func (p *Projections) TotalVersionSpan() int {
	total := 0
	for _, l := range p.versionChunks {
		total += len(l)
	}
	return total
}

// NumVersions returns how many versions have at least one chunk.
func (p *Projections) NumVersions() int { return len(p.versionChunks) }

// SizeBytes estimates the in-memory footprint of the projection as the paper
// reports it: the adjacency lists stored as 4-byte ids.
func (p *Projections) SizeBytes() int64 {
	var n int64
	for _, l := range p.versionChunks {
		n += int64(4 * len(l))
	}
	return n
}
