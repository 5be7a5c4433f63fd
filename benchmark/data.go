package main

import (
	"fmt"
	"math/rand"
	"sort"

	"rstore/internal/corpus"
	"rstore/internal/docgen"
	"rstore/internal/types"
	"rstore/internal/workload"
)

// answer is the fixed-size oracle of one query: how many records it must
// return and an order-independent 64-bit digest of them. The harness keeps
// these instead of the corpus, so its own live heap stays a few kilobytes
// while the system under test is being timed (they share a heap, and the
// harness's memory would otherwise set the GC pace).
type answer struct {
	n       int
	sum     uint64
	payload int64 // value bytes, for MB/s; not part of the comparison
}

func (a answer) matches(b answer) bool { return a.n == b.n && a.sum == b.sum }

// recordHash digests key, origin version and value: FNV-1a, then a
// finalizer so that the per-record hashes can be combined by addition
// without a pair of records cancelling another pair.
func recordHash(r types.Record) uint64 {
	const offset, prime = 14695981039346656037, 1099511628211
	h := uint64(offset)
	for i := 0; i < len(r.CK.Key); i++ {
		h = (h ^ uint64(r.CK.Key[i])) * prime
	}
	v := uint32(r.CK.Version)
	for i := 0; i < 4; i++ {
		h = (h ^ uint64(byte(v>>(8*i)))) * prime
	}
	h = (h ^ 0xff) * prime // separator: key bytes never run into value bytes
	for _, b := range r.Value {
		h = (h ^ uint64(b)) * prime
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return h
}

func (a *answer) add(r types.Record) {
	a.n++
	a.sum += recordHash(r)
	a.payload += int64(len(r.Value))
}

func (a *answer) remove(h uint64, size int) {
	a.n--
	a.sum -= h
	a.payload -= int64(size)
}

func answerOf(recs []types.Record) answer {
	var a answer
	for _, r := range recs {
		a.add(r)
	}
	return a
}

type opKind int

const (
	opVersion opKind = iota
	opRange
	opRecord
	opHistory
	opCommit
)

func (k opKind) String() string {
	return [...]string{"version", "range", "record", "history", "commit"}[k]
}

// Every workload reports two operation classes; which operations they are
// is the workload's definition (see workloads.go and README.md).
const (
	classPrimary   = 0
	classSecondary = 1
	classNone      = -1 // counted as attempted, timed into no class
)

// query is one read of a fixed list with its oracle.
type query struct {
	kind    opKind
	class   int
	version types.VersionID
	key     types.Key
	lo, hi  types.Key
	want    answer
}

// fixtureSeed generates the bulk-loaded datasets. They are fixtures, the
// same bytes on every run, the way a database benchmark ships one data
// generator and seeds only its query parameters: the partitioner's layout —
// how many chunks a version or a key's history is spread over, how full the
// chunks are — moves every read timing by 10–20 % from one generator seed to
// the next (measured: version p50 27–35 ms, point-read p50 6.2–7.5 ms over
// ten seeds), which is more than any bound this benchmark could then state.
// -seed picks what is asked of the fixture (which versions, keys and ranges,
// in which order) and every byte the write workloads commit.
const fixtureSeed = 2018

// datasetSpec returns a fixture's shape. V and M are linear chains (the
// paper's A-series shape), M being the history mixed-rw's writer extends.
// L is a tree: Bottom-Up needs several times longer to lay out a chain of
// its size.
func datasetSpec(name string, scale float64) workload.Spec {
	var s workload.Spec
	switch name {
	case "V": // ≈ 7 MB of user data, ≈ 5 MB per node: fits the 32 MiB block cache
		s = workload.Spec{Name: "V", Versions: 120, AvgDepth: 0, RecordsPerVersion: 2000, UpdatePct: 0.05, RecordSize: 512}
	case "L": // ≈ 65 MB of user data, ≈ 50 MB per node: exceeds block cache + row cache (40 MiB)
		s = workload.Spec{Name: "L", Versions: 200, AvgDepth: 20, RecordsPerVersion: 20000, UpdatePct: 0.06, RecordSize: 256}
	case "M": // small, so the online flushes of mixed-rw stay short
		s = workload.Spec{Name: "M", Versions: 100, AvgDepth: 0, RecordsPerVersion: 3000, UpdatePct: 0.05, RecordSize: 512}
	default:
		panic("unknown dataset " + name)
	}
	if scale < 1 {
		s = s.Scaled(scale, scale, 1)
	}
	s.Seed = fixtureSeed
	return s
}

// userBytes is the distinct value volume of a corpus: the denominator of
// the storage-cost ratios.
func userBytes(c *corpus.Corpus) int64 {
	var n int64
	for id := 0; id < c.NumRecords(); id++ {
		n += int64(len(c.Record(uint32(id)).Value))
	}
	return n
}

// oracle answers queries from a corpus. Record hashes are computed once.
type oracle struct {
	c      *corpus.Corpus
	hashes []uint64
}

func newOracle(c *corpus.Corpus) *oracle {
	o := &oracle{c: c, hashes: make([]uint64, c.NumRecords())}
	for id := range o.hashes {
		o.hashes[id] = recordHash(c.Record(uint32(id)))
	}
	return o
}

func (o *oracle) addID(a *answer, id uint32) {
	a.n++
	a.sum += o.hashes[id]
	a.payload += int64(len(o.c.Record(id).Value))
}

// fill computes q.want.
func (o *oracle) fill(q *query) error {
	q.want = answer{}
	switch q.kind {
	case opHistory:
		for _, id := range o.c.KeyRecords(q.key) {
			o.addID(&q.want, id)
		}
		return nil
	case opRecord:
		if id, ok := o.visible(q.key, q.version); ok {
			o.addID(&q.want, id)
		}
		return nil
	}
	members, err := o.c.Members(q.version)
	if err != nil {
		return err
	}
	for _, id := range members {
		if k := o.c.Record(id).CK.Key; q.kind == opRange && (k < q.lo || k >= q.hi) {
			continue
		}
		o.addID(&q.want, id)
	}
	return nil
}

// visible finds the record of key that version v shows without building
// v's whole member set (3 ms on dataset L, for each of 300 point reads): it
// is the revision that originates latest on v's path from the root, unless
// a later version on that path deleted it. Generated datasets have no merge
// commits, so the tree path is the whole history.
func (o *oracle) visible(key types.Key, v types.VersionID) (uint32, bool) {
	path := o.c.Graph().PathFromRoot(v)
	at := make(map[types.VersionID]int, len(path))
	for i, u := range path {
		at[u] = i
	}
	best, bestID := -1, uint32(0)
	for _, id := range o.c.KeyRecords(key) {
		if i, ok := at[o.c.Record(id).CK.Version]; ok && i > best {
			best, bestID = i, id
		}
	}
	if best < 0 {
		return 0, false
	}
	for _, u := range path[best+1:] {
		if o.c.Dels(u).Contains(bestID) {
			return 0, false
		}
	}
	return bestID, true
}

// The lists are short enough that a pass takes a tenth of the window (about
// 2.5 s on the reference box): the window is then made of many passes, the
// sample counts degrade smoothly on a slower box, and every query is asked
// often enough to have a median of its own.
const (
	scanVersions = 40 // version reads per pass, and as many range reads
	lookupGroups = 60 // groups of three point reads and one history per pass
)

// scanQueries is the version-scan list: a systematic sample of the
// fixture's versions (every third one), in a seeded order, each followed by
// a read of 10 % of the key space of a version of a second such sample.
// The low keys of the ranges are spread evenly over the key space. Whatever
// the seed, the list asks for the same versions and the same key ranges,
// paired and ordered differently, so its latency distribution is the
// fixture's, not a draw's.
func scanQueries(c *corpus.Corpus, seed int64) ([]query, error) {
	rng := rand.New(rand.NewSource(seed))
	n := min(scanVersions, c.NumVersions())
	stride := c.NumVersions() / n
	versions, rangeVersions := rng.Perm(n), rng.Perm(n)
	keys := append([]types.Key(nil), c.Keys()...)
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	width := max(1, len(keys)/10)
	o := newOracle(c)
	list := make([]query, 0, 2*n)
	for i := 0; i < n; i++ {
		list = append(list, query{kind: opVersion, class: classPrimary, version: types.VersionID(versions[i] * stride)})
		start := i * len(keys) / n
		hi := types.Key("\xff")
		if start+width < len(keys) {
			hi = keys[start+width]
		}
		list = append(list, query{kind: opRange, class: classSecondary, version: types.VersionID(rangeVersions[i]*stride + stride/2), lo: keys[start], hi: hi})
	}
	for i := range list {
		if err := o.fill(&list[i]); err != nil {
			return nil, err
		}
	}
	return list, nil
}

// lookupQueries is the key-lookup list: groups of three point reads and one
// key history, in a seeded order. The histories are those of the same
// evenly spaced keys whatever the seed: a key's revisions sit in anything
// from 2 to 20 chunks, and keys drawn afresh put the list's mean span
// anywhere between 6.5 and 8.2. Point reads cost the same wherever they
// land, so their keys start from a seeded offset and their versions come
// from a seeded permutation. A point read asks for a key that is live in
// its version (a missing key is answered from the index alone).
func lookupQueries(c *corpus.Corpus, seed int64, groups int) ([]query, error) {
	rng := rand.New(rand.NewSource(seed))
	keys := append([]types.Key(nil), c.Keys()...)
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	versions := rng.Perm(c.NumVersions())
	pointAt, histories := rng.Intn(len(keys)), rng.Perm(groups)
	o := newOracle(c)
	list := make([]query, 0, 4*groups)
	for g := 0; g < groups; g++ {
		for p := 3 * g; p < 3*g+3; p++ {
			v := types.VersionID(versions[p%len(versions)])
			at := (pointAt + p*len(keys)/(3*groups)) % len(keys)
			for tries := 0; ; tries++ {
				if _, live := o.visible(keys[at], v); live {
					break
				}
				if tries == len(keys) {
					return nil, fmt.Errorf("version %d has no live key", v)
				}
				at = (at + 1) % len(keys)
			}
			list = append(list, query{kind: opRecord, class: classPrimary, version: v, key: keys[at]})
		}
		key := keys[histories[g]*len(keys)/groups]
		list = append(list, query{kind: opHistory, class: classSecondary, key: key})
	}
	for i := range list {
		if err := o.fill(&list[i]); err != nil {
			return nil, err
		}
	}
	return list, nil
}

// commitGen produces a linear chain of commits one at a time and keeps the
// oracle of every version it has made: per live key the hash and size of
// its visible record, and per version the (count, digest) of its contents.
// Changes are generated just before they are sent, so the harness never
// holds more than one commit's payload. Which keys a commit modifies,
// deletes and inserts is part of the fixture (drawn from fixtureSeed), like
// the bulk-loaded datasets and for the same reason: the chunk layout online
// partitioning arrives at follows the keys, and ten seeds spread the span
// and the disk footprint by 3–4 %. The seed draws every value byte; values
// have the same size whatever the seed.
type commitGen struct {
	rng        *rand.Rand        // picks keys: the fixture's
	docs       *docgen.Generator // draws values: the run's seed
	recordSize int
	initial    int // records of the first version, when the chain starts empty
	updates    int // records touched per later commit

	live   []types.Key
	pos    map[types.Key]int
	hash   map[types.Key]uint64
	size   map[types.Key]int
	nextID int

	head  answer                     // contents of the newest version
	heads map[types.VersionID]answer // every version this generator made
	tip   types.VersionID
	puts  int64 // value bytes put so far
}

func newCommitGen(seed int64, recordSize, initial, updates int) *commitGen {
	return &commitGen{
		rng: rand.New(rand.NewSource(fixtureSeed)), docs: docgen.New(seed),
		recordSize: recordSize, initial: initial, updates: updates,
		pos: map[types.Key]int{}, hash: map[types.Key]uint64{}, size: map[types.Key]int{},
		heads: map[types.VersionID]answer{}, tip: types.InvalidVersion,
	}
}

// adopt starts the chain at an existing version of a bulk-loaded corpus.
func (g *commitGen) adopt(c *corpus.Corpus, tip types.VersionID) error {
	members, err := c.Members(tip)
	if err != nil {
		return err
	}
	for _, id := range members {
		r := c.Record(id)
		g.pos[r.CK.Key] = len(g.live)
		g.live = append(g.live, r.CK.Key)
		g.hash[r.CK.Key], g.size[r.CK.Key] = recordHash(r), len(r.Value)
		g.head.add(r)
	}
	// Fresh keys must not collide with any key of the corpus.
	g.nextID = c.NumKeys()
	sort.Slice(g.live, func(i, j int) bool { return g.live[i] < g.live[j] })
	for i, k := range g.live {
		g.pos[k] = i
	}
	g.tip = tip
	g.heads[tip] = g.head
	return nil
}

// change is one commit's payload.
type change struct {
	puts    map[types.Key][]byte
	deletes []types.Key
}

// next draws the following commit: the whole first version when the chain
// is empty, otherwise updates records split as workload.Generate splits
// them — 90 % modifications, 5 % deletions, 5 % insertions.
func (g *commitGen) next() change {
	ch := change{puts: map[types.Key][]byte{}}
	insert := func() {
		k := types.Key(fmt.Sprintf("k%08d", g.nextID))
		g.nextID++
		ch.puts[k] = g.docs.Document(k, g.recordSize)
	}
	if len(g.live) == 0 {
		for i := 0; i < g.initial; i++ {
			insert()
		}
		return ch
	}
	nDel, nIns := g.updates/20, g.updates/20
	picked := map[int]bool{}
	for len(picked) < g.updates-nIns && len(picked) < len(g.live) {
		picked[g.rng.Intn(len(g.live))] = true
	}
	idx := make([]int, 0, len(picked))
	for i := range picked {
		idx = append(idx, i)
	}
	sort.Ints(idx) // map order must not leak into the payload
	for n, i := range idx {
		k := g.live[i]
		if n < nDel {
			ch.deletes = append(ch.deletes, k)
		} else {
			ch.puts[k] = g.docs.Document(k, g.recordSize)
		}
	}
	for i := 0; i < nIns; i++ {
		insert()
	}
	return ch
}

// applied folds an acknowledged commit into the oracle; v is the version id
// the store assigned (the origin version of every record the commit put).
func (g *commitGen) applied(v types.VersionID, ch change) {
	drop := func(k types.Key) {
		g.head.remove(g.hash[k], g.size[k])
		delete(g.hash, k)
		delete(g.size, k)
	}
	for _, k := range ch.deletes {
		drop(k)
		i, last := g.pos[k], len(g.live)-1
		g.live[i] = g.live[last]
		g.pos[g.live[i]] = i
		g.live = g.live[:last]
		delete(g.pos, k)
	}
	keys := make([]types.Key, 0, len(ch.puts))
	for k := range ch.puts {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] }) // g.live must not inherit map order
	for _, k := range keys {
		val := ch.puts[k]
		if _, ok := g.hash[k]; ok {
			drop(k)
		} else {
			g.pos[k] = len(g.live)
			g.live = append(g.live, k)
		}
		r := types.Record{CK: types.CompositeKey{Key: k, Version: v}, Value: val}
		g.hash[k], g.size[k] = recordHash(r), len(val)
		g.head.add(r)
		g.puts += int64(len(val))
	}
	g.tip = v
	g.heads[v] = g.head
}
