package kvstore

import (
	"context"
	"fmt"
	"reflect"
	"testing"
	"time"

	"rstore/internal/engine"
)

// fastAE is the anti-entropy test tuning: tick fast, and shut off both
// foreground repair channels so any convergence observed below is the AE
// loop's alone.
func fastAE() RepairOptions {
	return RepairOptions{
		AntiEntropyInterval: 2 * time.Millisecond,
		DisableReadRepair:   true,
		DisableHints:        true,
	}
}

func TestAntiEntropyPairAt(t *testing.T) {
	for _, n := range []int{2, 3, 4, 7} {
		total := n * (n - 1) / 2
		seen := map[[2]int]bool{}
		for p := 0; p < total; p++ {
			i, j := pairAt(p, n)
			if i < 0 || j <= i || j >= n {
				t.Fatalf("pairAt(%d, %d) = (%d, %d): not an ordered pair", p, n, i, j)
			}
			if seen[[2]int{i, j}] {
				t.Fatalf("pairAt(%d, %d) = (%d, %d): pair repeated", p, n, i, j)
			}
			seen[[2]int{i, j}] = true
		}
		if len(seen) != total {
			t.Fatalf("n=%d: %d distinct pairs, want %d", n, len(seen), total)
		}
	}
}

func TestAntiEntropyDiffKeyHashes(t *testing.T) {
	kh := func(k string, h uint64) engine.KeyHash { return engine.KeyHash{Key: k, Hash: h} }
	cases := []struct {
		name   string
		ki, kj []engine.KeyHash
		want   []string
	}{
		{"both empty", nil, nil, nil},
		{"identical", []engine.KeyHash{kh("a", 1), kh("b", 2)}, []engine.KeyHash{kh("a", 1), kh("b", 2)}, nil},
		{"value differs", []engine.KeyHash{kh("a", 1)}, []engine.KeyHash{kh("a", 9)}, []string{"a"}},
		{"left only", []engine.KeyHash{kh("a", 1), kh("b", 2)}, []engine.KeyHash{kh("b", 2)}, []string{"a"}},
		{"right only", []engine.KeyHash{kh("b", 2)}, []engine.KeyHash{kh("a", 1), kh("b", 2)}, []string{"a"}},
		{
			"interleaved",
			[]engine.KeyHash{kh("a", 1), kh("c", 3), kh("e", 5)},
			[]engine.KeyHash{kh("b", 2), kh("c", 4), kh("e", 5), kh("f", 6)},
			[]string{"a", "b", "c", "f"},
		},
	}
	for _, tc := range cases {
		if got := diffKeyHashes(tc.ki, tc.kj); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: diffKeyHashes = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestAntiEntropyOffByDefault: the loop must not exist unless explicitly
// enabled — and never on an unreplicated cluster, where there is no peer to
// sync against.
func TestAntiEntropyOffByDefault(t *testing.T) {
	s, _ := openRepair(t, 3, 2, fastRepair())
	if s.ae != nil {
		t.Fatal("anti-entropy loop running without AntiEntropyInterval")
	}
	s2, _ := openRepair(t, 3, 1, fastAE())
	if s2.ae != nil {
		t.Fatal("anti-entropy loop running at replication factor 1")
	}
}

// TestAntiEntropyRepairsSilentDivergence is the core guarantee: a replica
// corrupted behind the store's back — deleted keys, values regressed to
// older timestamps, garbage bytes — converges back to its peers through the
// background loop alone. No client reads (read repair is off), no missed
// writes (hints are off and no node was ever down): nothing but the hash
// trees can notice the damage.
func TestAntiEntropyRepairsSilentDivergence(t *testing.T) {
	s, backends := openRepair(t, 3, 3, fastAE())
	ctx := context.Background()

	const n = 24
	for i := 0; i < n; i++ {
		if err := s.Put(ctx, "t", fmt.Sprintf("k%02d", i), []byte(fmt.Sprintf("v%02d", i))); err != nil {
			t.Fatal(err)
		}
	}

	// Corrupt node 1 directly through its backend. The store sees none of
	// these writes — its clock, stats, and repair queues are untouched.
	if err := backends[1].Delete(ctx, "t", "k00"); err != nil { // silent loss
		t.Fatal(err)
	}
	if err := backends[1].Put(ctx, "t", "k01", envelope(envValue, 1, []byte("stale"))); err != nil { // regressed
		t.Fatal(err)
	}
	if err := backends[1].Put(ctx, "t", "k02", []byte{0xff, 0xbd}); err != nil { // not even an envelope
		t.Fatal(err)
	}

	waitFor(t, "silently diverged replica repaired", func() bool {
		for i := 0; i < n; i++ {
			key := fmt.Sprintf("k%02d", i)
			if !rawEqual(t, backends[0], backends[1], "t", key) || !rawEqual(t, backends[0], backends[2], "t", key) {
				return false
			}
		}
		return true
	})
	st := s.Stats(ctx)
	if st.AESyncs < 1 || st.AERangesDiffed < 1 || st.AEKeysRepaired < 3 || st.AEBytesHashed < 1 {
		t.Fatalf("AE stats = syncs %d, ranges %d, keys %d, bytes %d; want all positive (>=3 keys)",
			st.AESyncs, st.AERangesDiffed, st.AEKeysRepaired, st.AEBytesHashed)
	}
	// The converged value must be the intact replicas' version, not the
	// corruption.
	if v, ok := rawGet(t, backends[1], "t", "k01"); !ok || string(v[EnvelopeOverhead:]) != "v01" {
		t.Fatalf("node 1 k01 = %q, %v after repair", v, ok)
	}
}

// TestAntiEntropySuppressesTombstoneResurrection: a replica where a deleted
// key has silently come back to life (e.g. restored from an old backup) is
// re-killed by the surviving tombstone, and the tombstone — held by only
// some replicas because one missed the delete — is spread by the AE repairs
// to all of them, so GC can finally collect it everywhere.
func TestAntiEntropySuppressesTombstoneResurrection(t *testing.T) {
	s, backends := openRepair(t, 3, 3, fastAE())
	ctx := context.Background()

	if err := s.Put(ctx, "t", "ghost", []byte("alive")); err != nil {
		t.Fatal(err)
	}
	// Capture the live envelope, then delete with node 2 down and hints
	// off: node 2 keeps the live value, and the tombstone on nodes 0/1 can
	// never be GC'd (one replica does not hold it) until AE intervenes.
	old := mustRaw(t, backends[1], "t", "ghost")
	backends[2].SetDown(true)
	if err := s.Delete(ctx, "t", "ghost"); err != nil {
		t.Fatal(err)
	}
	backends[2].SetDown(false)
	// Resurrect the old value over node 1's tombstone behind the store's
	// back — older timestamp, so LWW must reject it.
	if err := backends[1].Put(ctx, "t", "ghost", old); err != nil {
		t.Fatal(err)
	}

	// Convergence: the tombstone spreads to nodes 1 and 2, the key is judged
	// again with every replica holding it, and GC erases it — so the settled
	// state is "absent everywhere", never the resurrected value. Requiring
	// full collection also pins the repair-queue regression where a GC task
	// scheduled during its own tombstone repair coalesced against it and was
	// dropped: with every tree equal again, nothing would diff the key anew.
	waitFor(t, "resurrection suppressed and tombstone collected everywhere", func() bool {
		for _, be := range backends {
			if _, ok := rawGet(t, be, "t", "ghost"); ok {
				return false
			}
		}
		return true
	})
	if st := s.Stats(ctx); st.TombstonesGCed < 1 {
		t.Fatalf("TombstonesGCed = %d, want >= 1", st.TombstonesGCed)
	}
}

// TestAntiEntropyRespectsRingPlacement: at replication factor < nodes, each
// node legitimately lacks the keys it doesn't replicate. The loop must not
// "repair" those onto it.
func TestAntiEntropyRespectsRingPlacement(t *testing.T) {
	s, backends := openRepair(t, 3, 2, fastAE())
	ctx := context.Background()

	for i := 0; i < 32; i++ {
		if err := s.Put(ctx, "t", fmt.Sprintf("k%02d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	// Give the loop time to run several full pair rotations.
	waitFor(t, "several sync rounds", func() bool { return s.Stats(ctx).AESyncs >= 6 })

	for i := 0; i < 32; i++ {
		key := fmt.Sprintf("k%02d", i)
		holders := map[int]bool{}
		for _, nd := range s.ring.replicas(key, 2) {
			holders[nd] = true
		}
		for node, be := range backends {
			if _, ok := rawGet(t, be, "t", key); ok != holders[node] {
				t.Fatalf("node %d holds %q: %v, ring says %v", node, key, ok, holders[node])
			}
		}
	}
}

// TestAntiEntropySkipsDownNodes: the loop keeps syncing the live pair while
// a node is down, and divergence created while it was down is repaired once
// it returns — even with hints off, so the AE loop is the only path home.
func TestAntiEntropySkipsDownNodes(t *testing.T) {
	s, backends := openRepair(t, 3, 3, fastAE())
	ctx := context.Background()

	if err := s.Put(ctx, "t", "k", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	backends[2].SetDown(true)
	if err := s.Put(ctx, "t", "k", []byte("v2")); err != nil {
		t.Fatal(err)
	}
	// Let the loop spin against the downed node; it must keep syncing the
	// live pair.
	waitFor(t, "sync rounds with a node down", func() bool { return s.Stats(ctx).AESyncs >= 3 })
	backends[2].SetDown(false)
	waitFor(t, "returned node caught up by anti-entropy", func() bool {
		return rawEqual(t, backends[0], backends[2], "t", "k")
	})
	if raw := mustRaw(t, backends[2], "t", "k"); string(raw[EnvelopeOverhead:]) != "v2" {
		t.Fatalf("node 2 = %q after catch-up, want v2", raw)
	}
}

// TestAntiEntropyCollectsOrphanTombstone pins the liveness of the
// (tombstone, nothing) pair — the shape a wiped-and-restored replica, or a
// client closed before its collections ran, leaves behind. The repair
// writer rightly refuses to write a tombstone over nothing, so a pair
// judged on its own would re-diff this key on every sweep forever:
// AEKeysRepaired climbing without bound while no write ever happens and
// the tombstone is never collected. Judged across all its replicas, under
// default options, the key must (a) be collected since they all agree, and
// (b) count zero key repairs on the way.
func TestAntiEntropyCollectsOrphanTombstone(t *testing.T) {
	s, backends := openRepair(t, 3, 3, fastAE())
	ctx := context.Background()

	// The orphan: planted straight into one backend, as if written by a
	// previous client; this one never wrote the delete.
	if err := backends[0].Put(ctx, "t", "ghost", envelope(envTombstone, 1, nil)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "orphan tombstone collected", func() bool {
		_, ok := rawGet(t, backends[0], "t", "ghost")
		return !ok && s.Stats(ctx).TombstonesGCed >= 1
	})
	// Refused repairs must not be counted: nothing here was repairable.
	if got := s.Stats(ctx).AEKeysRepaired; got != 0 {
		t.Fatalf("AEKeysRepaired = %d, want 0 (a tombstone-vs-absent pair is not a repair)", got)
	}
}

// TestAntiEntropyTickSyncsLivePair: with one of three nodes down, a single
// tick walks past the pairs it cannot sync and syncs the live one, whichever
// pair the cursor starts at.
func TestAntiEntropyTickSyncsLivePair(t *testing.T) {
	for start := 0; start < 3; start++ {
		t.Run(fmt.Sprintf("cursor=%d", start), func(t *testing.T) {
			opts := fastAE()
			opts.AntiEntropyInterval = time.Hour // the tick below is the only one
			s, backends := openRepair(t, 3, 3, opts)
			ctx := context.Background()
			if err := s.Put(ctx, "t", "k", []byte("v")); err != nil {
				t.Fatal(err)
			}
			a := s.ae
			a.pair = start
			// Divergence behind the store's back on node 2, node 0 down: only
			// the pair (1, 2) can find it.
			if err := backends[2].Delete(ctx, "t", "k"); err != nil {
				t.Fatal(err)
			}
			backends[0].SetDown(true)
			a.syncOnce()
			if got := a.syncs.Load(); got != 1 {
				t.Fatalf("one tick completed %d syncs, want 1", got)
			}
			if i, j := pairAt((a.pair-1)%3, 3); i != 1 || j != 2 {
				t.Fatalf("the tick synced (%d, %d), want (1, 2)", i, j)
			}
			waitFor(t, "node 2 repaired", func() bool {
				return rawEqual(t, backends[1], backends[2], "t", "k")
			})
		})
	}
}
