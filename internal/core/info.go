package core

// Info is a snapshot of store-level statistics, the numbers the paper
// reports when sizing indexes and storage (§2.4).
type Info struct {
	// Versions is the number of committed versions.
	Versions int
	// PendingVersions is the number awaiting placement.
	PendingVersions int
	// Records is the number of distinct records (composite keys).
	Records int
	// Keys is the number of distinct primary keys.
	Keys int
	// Chunks is the number of materialized chunks.
	Chunks int
	// Copies is the number of records stored in more than one chunk: those a
	// flush copied forward out of a nearly dead chunk (Flush), the price of
	// online placement that does not decay. A repartition stores each record
	// once.
	Copies int
	// TotalVersionSpan is Σ_v |chunks(v)| — the partitioning-quality
	// metric.
	TotalVersionSpan int
	// VersionIndexBytes / KeyIndexBytes are the footprints of the paper's two
	// projections as it reports them, adjacency lists of 4-byte chunk ids
	// ("these indexes can easily fit in ... main memory"). The key→chunks
	// figure is computed from the records' locations: no such index is kept.
	VersionIndexBytes int64
	KeyIndexBytes     int64
	// Branches is the number of named branches.
	Branches int
}

// Info returns current statistics.
func (s *Store) Info() Info {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var kb int64
	for _, k := range s.corpus.Keys() {
		if span := s.keySpan(k); span > 0 {
			kb += int64(len(k) + 4*span)
		}
	}
	return Info{
		Versions:          s.graph.NumVersions(),
		PendingVersions:   s.numPending(),
		Records:           s.corpus.NumRecords(),
		Keys:              s.corpus.NumKeys(),
		Chunks:            s.layout.NumChunks(),
		Copies:            s.layout.Copied(),
		TotalVersionSpan:  s.layout.TotalVersionSpan(),
		VersionIndexBytes: s.layout.VersionIndexBytes(),
		KeyIndexBytes:     kb,
		Branches:          len(s.branches),
	}
}
