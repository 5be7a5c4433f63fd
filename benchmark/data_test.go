package main

import (
	"reflect"
	"testing"

	"rstore/internal/types"
	"rstore/internal/workload"
)

// The oracle's shortcuts (precomputed hashes, the path walk for point
// reads) against the plain definition: filter corpus.Members and digest.
func TestOracleAgainstMembers(t *testing.T) {
	for _, name := range []string{"V", "L"} {
		c, err := workload.Generate(datasetSpec(name, 0.05))
		if err != nil {
			t.Fatal(err)
		}
		scan, err := scanQueries(c, 7)
		if err != nil {
			t.Fatal(err)
		}
		lookup, err := lookupQueries(c, 7, 12)
		if err != nil {
			t.Fatal(err)
		}
		kinds := map[opKind]int{}
		for _, q := range append(scan, lookup...) {
			var want answer
			if q.kind == opHistory {
				for _, id := range c.KeyRecords(q.key) {
					want.add(c.Record(id))
				}
			} else {
				members, err := c.Members(q.version)
				if err != nil {
					t.Fatal(err)
				}
				for _, id := range members {
					r := c.Record(id)
					switch {
					case q.kind == opRange && (r.CK.Key < q.lo || r.CK.Key >= q.hi):
					case q.kind == opRecord && r.CK.Key != q.key:
					default:
						want.add(r)
					}
				}
			}
			if !q.want.matches(want) || q.want.payload != want.payload {
				t.Errorf("%s: %s v%d %q: oracle %+v, members say %+v", name, q.kind, q.version, q.key, q.want, want)
			}
			if q.kind == opRecord && want.n != 1 {
				t.Errorf("%s: point query for %q in v%d has %d answers", name, q.key, q.version, want.n)
			}
			kinds[q.kind]++
		}
		if len(kinds) != 4 {
			t.Errorf("%s: lists cover %v, want all four read kinds", name, kinds)
		}
		if got, want := userBytes(c), c.TotalBytes()-int64(c.NumRecords())*types.RecordOverhead; got != want {
			t.Errorf("%s: userBytes = %d, want %d", name, got, want)
		}
	}
}

// Whatever the seed, the version-scan list asks for the same versions and
// ranges (a systematic sample of the fixture), ordered and paired
// differently; the same seed gives the same list.
func TestScanQueriesSampleTheFixture(t *testing.T) {
	spec := datasetSpec("V", 1)
	spec.RecordsPerVersion = 50 // the versions matter here, not their size
	c, err := workload.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	asked := func(seed int64) (versions, ranges map[types.VersionID]bool, list []query) {
		list, err := scanQueries(c, seed)
		if err != nil {
			t.Fatal(err)
		}
		versions, ranges = map[types.VersionID]bool{}, map[types.VersionID]bool{}
		for i, q := range list {
			if want := [2]opKind{opVersion, opRange}[i%2]; q.kind != want {
				t.Fatalf("query %d is a %s read, want the two kinds interleaved", i, q.kind)
			}
			if q.kind == opVersion {
				versions[q.version] = true
			} else {
				ranges[q.version] = true
			}
		}
		return versions, ranges, list
	}
	v1, r1, l1 := asked(1)
	v2, r2, l2 := asked(2)
	if len(l1) != 2*scanVersions || len(v1) != scanVersions || len(r1) != scanVersions {
		t.Errorf("%d queries over %d versions and %d range versions, want %d of each", len(l1), len(v1), len(r1), scanVersions)
	}
	if !reflect.DeepEqual(v1, v2) || !reflect.DeepEqual(r1, r2) {
		t.Error("another seed asks for other versions")
	}
	if reflect.DeepEqual(l1, l2) {
		t.Error("another seed gives the same order and pairing")
	}
	if _, _, again := asked(1); !reflect.DeepEqual(l1, again) {
		t.Error("the same seed gives another list")
	}
	for v := range v1 {
		if r1[v] {
			t.Errorf("version %d is read both in full and by range: the two samples should differ", v)
		}
	}
}

// A version deleted a key: the path walk must not resurrect it.
func TestVisibleSeesDeletes(t *testing.T) {
	c, err := workload.Generate(workload.Spec{Versions: 30, RecordsPerVersion: 40, UpdatePct: 0.5, DeleteFrac: 0.5, RecordSize: 64, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	o := newOracle(c)
	deleted := 0
	for v := 0; v < c.NumVersions(); v++ {
		members, _ := c.Members(types.VersionID(v))
		live := map[types.Key]uint32{}
		for _, id := range members {
			live[c.Record(id).CK.Key] = id
		}
		for _, k := range c.Keys() {
			id, ok := o.visible(k, types.VersionID(v))
			if want, isLive := live[k]; ok != isLive || (ok && id != want) {
				t.Fatalf("visible(%q, v%d) = %d %v, members say %d %v", k, v, id, ok, want, isLive)
			}
			if !ok {
				deleted++
			}
		}
	}
	if deleted == 0 {
		t.Error("the dataset deleted nothing: the test checks nothing")
	}
}

func TestAnswerIsOrderIndependent(t *testing.T) {
	recs := []types.Record{
		{CK: types.CompositeKey{Key: "a", Version: 1}, Value: []byte("x")},
		{CK: types.CompositeKey{Key: "b", Version: 2}, Value: []byte("yy")},
		{CK: types.CompositeKey{Key: "c", Version: 2}, Value: nil},
	}
	fwd := answerOf(recs)
	rev := answerOf([]types.Record{recs[2], recs[1], recs[0]})
	if !fwd.matches(rev) {
		t.Error("the digest depends on record order")
	}
	for i, mutate := range []func(r *types.Record){
		func(r *types.Record) { r.CK.Key = "ab" },
		func(r *types.Record) { r.CK.Version = 3 },
		func(r *types.Record) { r.Value = []byte("z") },
	} {
		changed := append([]types.Record(nil), recs...)
		mutate(&changed[0])
		if fwd.matches(answerOf(changed)) {
			t.Errorf("mutation %d (key, origin version, value) went unnoticed", i)
		}
	}
	if fwd.matches(answerOf(recs[:2])) {
		t.Error("a missing record went unnoticed")
	}
}

// commitGen's running oracle against a model kept the slow way, and its
// determinism: the same seed must give the same commits.
func TestCommitGenOracle(t *testing.T) {
	g, twin := newCommitGen(5, 64, 50, 40), newCommitGen(5, 64, 50, 40)
	model := map[types.Key]types.Record{}
	for v := types.VersionID(0); v < 40; v++ {
		ch, same := g.next(), twin.next()
		if !reflect.DeepEqual(ch, same) {
			t.Fatalf("commit %d differs between two generators of one seed", v)
		}
		if v > 0 && (len(ch.deletes) != 2 || len(ch.puts) != 38) {
			t.Fatalf("commit %d: %d puts, %d deletes", v, len(ch.puts), len(ch.deletes))
		}
		for _, k := range ch.deletes {
			if _, ok := model[k]; !ok {
				t.Fatalf("commit %d deletes %q, which is not live", v, k)
			}
			delete(model, k)
		}
		for k, val := range ch.puts {
			model[k] = types.Record{CK: types.CompositeKey{Key: k, Version: v}, Value: val}
		}
		g.applied(v, ch)
		twin.applied(v, same)
		var want answer
		for _, r := range model {
			want.add(r)
		}
		if got := g.heads[v]; !got.matches(want) || got.payload != want.payload {
			t.Fatalf("after commit %d: oracle %+v, model %+v", v, got, want)
		}
		if len(g.live) != len(model) {
			t.Fatalf("after commit %d: %d live keys, model has %d", v, len(g.live), len(model))
		}
	}
	if g.tip != 39 || len(g.heads) != 40 {
		t.Errorf("tip %d, %d heads", g.tip, len(g.heads))
	}
}

// adopt continues a bulk-loaded chain: the head oracle is the tip's
// contents and fresh keys do not collide with the corpus's.
func TestCommitGenAdopt(t *testing.T) {
	c, err := workload.Generate(datasetSpec("M", 0.05))
	if err != nil {
		t.Fatal(err)
	}
	tip := types.VersionID(c.NumVersions() - 1)
	g := newCommitGen(9, 64, 0, 8)
	if err := g.adopt(c, tip); err != nil {
		t.Fatal(err)
	}
	q := query{kind: opVersion, version: tip}
	if err := newOracle(c).fill(&q); err != nil {
		t.Fatal(err)
	}
	if !g.head.matches(q.want) {
		t.Errorf("adopted head %+v, tip holds %+v", g.head, q.want)
	}
	taken := map[types.Key]bool{}
	for _, k := range c.Keys() {
		taken[k] = true
	}
	for i := 0; i < 30; i++ {
		ch := g.next()
		for k := range ch.puts {
			if _, live := g.hash[k]; !live && taken[k] {
				t.Fatalf("fresh key %q collides with the corpus", k)
			}
		}
		g.applied(tip+types.VersionID(i)+1, ch)
	}
}
