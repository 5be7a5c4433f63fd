package kvstore

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"slices"
	"testing"
	"time"

	"rstore/internal/engine/memory"
	"rstore/internal/types"
)

// Observation shorthands for the verdict tables.
func held(node int, ts uint64, tomb bool) observation {
	return observation{node: node, state: obsHeld, ts: ts, tomb: tomb}
}
func absent(node int) observation      { return observation{node: node, state: obsAbsent} }
func unreachable(node int) observation { return observation{node: node, state: obsUnreachable} }
func rotten(node int) observation      { return observation{node: node, state: obsUnparsable} }

// TestVerdict pins judge on the shapes of divergence the store knows.
func TestVerdict(t *testing.T) {
	cases := []struct {
		name          string
		obs           []observation
		winner        int // node id; -1 for none
		losers        []int
		complete      bool
		gap           bool
		down, corrupt bool
	}{
		{name: "agreement", obs: []observation{held(0, 5, false), held(1, 5, false)}, winner: 0, complete: true},
		{name: "stale", obs: []observation{held(0, 5, false), held(1, 9, false), held(2, 9, false)}, winner: 1, losers: []int{0}},
		{name: "missing", obs: []observation{absent(0), held(1, 5, false)}, winner: 1, losers: []int{0}, gap: true},
		{name: "value a tombstone deleted", obs: []observation{held(0, 5, false), held(1, 9, true)}, winner: 1, losers: []int{0}},
		{name: "tombstone vs nothing", obs: []observation{held(0, 5, true), absent(1), absent(2)}, winner: 0, complete: true},
		{name: "tie: tombstone beats value", obs: []observation{held(0, 5, false), held(1, 5, true)}, winner: 1, losers: []int{0}},
		{name: "tie: lowest node wins, both carry the version", obs: []observation{held(2, 5, false), held(1, 5, false)}, winner: 1, complete: true},
		{name: "unparsable is a loser", obs: []observation{rotten(0), held(1, 5, false)}, winner: 1, losers: []int{0}},
		{name: "unparsable under a tombstone is a loser too", obs: []observation{rotten(0), held(1, 5, true)}, winner: 1, losers: []int{0}},
		{name: "unreachable blocks completeness only", obs: []observation{unreachable(0), held(1, 5, true), absent(2)}, winner: 1},
		{name: "unreachable beside a loser", obs: []observation{unreachable(0), held(1, 5, false), held(2, 9, false)}, winner: 2, losers: []int{1}},
		{name: "absent everywhere", obs: []observation{absent(0), absent(1)}, winner: -1},
		{name: "absent or unreachable", obs: []observation{absent(0), unreachable(1)}, winner: -1},
		{name: "all down", obs: []observation{unreachable(0), unreachable(1)}, winner: -1, down: true},
		{name: "nothing parsable", obs: []observation{rotten(0), absent(1)}, winner: -1, corrupt: true},
		{name: "nothing parsable, one down", obs: []observation{rotten(0), unreachable(1)}, winner: -1, corrupt: true},
	}
	for _, tc := range cases {
		v := judge(tc.obs)
		winner := -1
		if v.win >= 0 {
			winner = tc.obs[v.win].node
		}
		if winner != tc.winner || !slices.Equal(v.losers, tc.losers) || v.complete != tc.complete || v.gap != tc.gap || v.down != tc.down || v.corrupt != tc.corrupt {
			t.Errorf("%s: judge = winner %d, %+v; want winner %d losers %v complete %v gap %v down %v corrupt %v",
				tc.name, winner, v, tc.winner, tc.losers, tc.complete, tc.gap, tc.down, tc.corrupt)
		}
	}
}

// TestVerdictCallersAgree plants one divergent key straight into the
// backends of a 3-node, rf-3 cluster and lets each observer of divergence —
// a read, a Scan, the anti-entropy loop — find it alone. Whoever
// looks, the same version is served and the replicas settle in the same
// state: the verdict and what follows from it exist once.
func TestVerdictCallersAgree(t *testing.T) {
	const key = "k"
	val := func(ts uint64, s string) []byte { return envelope(envValue, ts, []byte(s)) }
	tomb := func(ts uint64) []byte { return envelope(envTombstone, ts, nil) }
	garbage := []byte{0xff, 0xbd}
	scenarios := []struct {
		name    string
		planted [3][]byte // raw bytes per node; nil = holds nothing
		down    int       // node taken down before the observation; -1 = none
		serves  string    // "" = not found
		settled [3][]byte // what every replica must come to hold
	}{
		{name: "stale", planted: [3][]byte{val(200, "v2"), val(100, "v1"), val(200, "v2")}, down: -1,
			serves: "v2", settled: [3][]byte{val(200, "v2"), val(200, "v2"), val(200, "v2")}},
		{name: "missing", planted: [3][]byte{val(100, "v"), nil, val(100, "v")}, down: -1,
			serves: "v", settled: [3][]byte{val(100, "v"), val(100, "v"), val(100, "v")}},
		{name: "tombstone vs nothing", planted: [3][]byte{tomb(100), nil, nil}, down: -1,
			settled: [3][]byte{nil, nil, nil}}, // agreed on: collected, never spread
		{name: "timestamp tie", planted: [3][]byte{val(500, "a"), tomb(500), val(500, "c")}, down: -1,
			settled: [3][]byte{nil, nil, nil}}, // spread, then agreed on and collected
		{name: "unparsable", planted: [3][]byte{garbage, val(100, "v"), val(100, "v")}, down: -1,
			serves: "v", settled: [3][]byte{val(100, "v"), val(100, "v"), val(100, "v")}},
		{name: "unreachable", planted: [3][]byte{val(50, "v0"), val(100, "v1"), val(200, "v2")}, down: 0,
			serves: "v2", settled: [3][]byte{val(50, "v0"), val(200, "v2"), val(200, "v2")}},
	}
	served := func(v []byte, err error) (string, error) {
		if errors.Is(err, types.ErrNotFound) {
			return "", nil
		}
		return string(v), err
	}
	observers := []struct {
		name    string
		observe func(ctx context.Context, s *Store) (string, error) // nil: the anti-entropy loop looks by itself
	}{
		{"Get", func(ctx context.Context, s *Store) (string, error) { return served(s.Get(ctx, "t", key)) }},
		{"Scan", func(ctx context.Context, s *Store) (string, error) {
			got := ""
			err := s.Scan(ctx, "t", func(k string, v []byte) bool {
				if k == key {
					got = string(v)
				}
				return true
			})
			return got, err
		}},
		{"anti-entropy", nil},
	}
	for _, sc := range scenarios {
		for _, ob := range observers {
			t.Run(sc.name+"/"+ob.name, func(t *testing.T) {
				ctx := context.Background()
				cfg := Config{Nodes: 3, ReplicationFactor: 3}
				if ob.observe == nil {
					cfg.AntiEntropyInterval = time.Hour
				}
				s, backends := openMem(t, cfg)
				for n, raw := range sc.planted {
					if raw != nil {
						if err := backends[n].Put(ctx, "t", key, raw); err != nil {
							t.Fatal(err)
						}
					}
				}
				if sc.down >= 0 {
					backends[sc.down].SetDown(true)
				}
				if ob.observe != nil {
					if got, err := ob.observe(ctx, s); err != nil || got != sc.serves {
						t.Fatalf("served %q, %v; want %q", got, err, sc.serves)
					}
				}
				waitFor(t, "replicas settled", func() bool {
					if ob.observe == nil {
						s.ae.syncOnce() // the loop's tick, driven by hand (its own is an hour away)
					}
					for n, want := range sc.settled {
						if n == sc.down {
							continue // read once it is back, below
						}
						if raw, ok := rawGet(t, backends[n], "t", key); ok != (want != nil) || !bytes.Equal(raw, want) {
							return false
						}
					}
					return true
				})
				if sc.down >= 0 {
					backends[sc.down].SetDown(false)
					if raw, ok := rawGet(t, backends[sc.down], "t", key); ok != (sc.settled[sc.down] != nil) || !bytes.Equal(raw, sc.settled[sc.down]) {
						t.Fatalf("down node %d holds %q, want %q", sc.down, raw, sc.settled[sc.down])
					}
				}
				if sc.name == "tombstone vs nothing" {
					if st := s.Stats(ctx); st.RepairWrites != 0 || st.TombstonesGCed != 1 {
						t.Fatalf("RepairWrites = %d, TombstonesGCed = %d; want 0 and 1", st.RepairWrites, st.TombstonesGCed)
					}
				}
			})
		}
	}
}

// TestUnparsableReplicaIsServedAround: at rf 2, a key whose one replica holds
// bytes that are no envelope is served from the other replica by every read,
// and the rotten replica is overwritten — corruption of one copy is
// divergence, not an error. Only a key with no parsable copy is ErrCorrupt.
func TestUnparsableReplicaIsServedAround(t *testing.T) {
	ctx := context.Background()
	reads := map[string]func(s *Store, key string) (string, error){
		"Get": func(s *Store, key string) (string, error) {
			v, err := s.Get(ctx, "t", key)
			return string(v), err
		},
		"MultiGet": func(s *Store, key string) (string, error) {
			res, err := s.MultiGet(ctx, "t", []string{key, "absent"})
			if err != nil {
				return "", err
			}
			return string(res.Values[0]), nil
		},
		"Scan": func(s *Store, key string) (string, error) {
			got := ""
			err := s.Scan(ctx, "t", func(k string, v []byte) bool {
				if k == key {
					got = string(v)
				}
				return true
			})
			return got, err
		},
	}
	for name, read := range reads {
		t.Run(name, func(t *testing.T) {
			s, backends := openRepair(t, 3, 2)
			const key = "doc"
			if err := s.Put(ctx, "t", key, []byte("intact")); err != nil {
				t.Fatal(err)
			}
			replicas := s.ring.replicas(key, 2)
			good, bad := backends[replicas[0]], backends[replicas[1]]
			if err := bad.Put(ctx, "t", key, []byte("rot")); err != nil {
				t.Fatal(err)
			}
			if got, err := read(s, key); err != nil || got != "intact" {
				t.Fatalf("read = %q, %v; want the intact replica's value", got, err)
			}
			waitFor(t, "rotten replica overwritten", func() bool { return rawEqual(t, good, bad, "t", key) })

			// Rot on every replica leaves nothing to serve or to spread.
			for _, be := range []*memory.Backend{good, bad} {
				if err := be.Put(ctx, "t", key, []byte("rot")); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := read(s, key); !errors.Is(err, types.ErrCorrupt) {
				t.Fatalf("read of a key with no parsable replica: %v, want ErrCorrupt", err)
			}
		})
	}
}

// TestScanDetectsDivergencePastSixtyFourNodes: the divergence a Scan sweeps
// up is repaired on a cluster of any size. The lagging node is made stale
// behind the store's back, so no hint is parked for it.
func TestScanDetectsDivergencePastSixtyFourNodes(t *testing.T) {
	const nodes = 70
	s, backends := openRepair(t, nodes, 2)
	ctx := context.Background()
	var entries []Entry
	for i := 0; i < 200; i++ {
		entries = append(entries, Entry{Key: fmt.Sprintf("k%03d", i), Value: []byte("v1")})
	}
	if err := s.BatchPut(ctx, "t", entries); err != nil {
		t.Fatal(err)
	}
	const lagging = nodes - 1 // a node id no 64-bit mask can hold
	old := snapshot(t, backends[lagging], "t")
	for i := range entries {
		entries[i].Value = []byte("v2")
	}
	if err := s.BatchPut(ctx, "t", entries); err != nil {
		t.Fatal(err)
	}
	restore(t, backends[lagging], "t", old)
	stale := 0
	for _, e := range entries {
		if slices.Contains(s.ring.replicas(e.Key, 2), lagging) {
			stale++
		}
	}
	if stale == 0 {
		t.Fatalf("precondition: node %d replicates none of the keys", lagging)
	}
	if err := s.Scan(ctx, "t", func(string, []byte) bool { return true }); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "scan-detected stale replicas rewritten", func() bool {
		for _, e := range entries {
			if slices.Contains(s.ring.replicas(e.Key, 2), lagging) &&
				!rawEqual(t, backends[lagging], backends[other(s, e.Key, lagging)], "t", e.Key) {
				return false
			}
		}
		return true
	})
}
