package kvstore

import (
	"bytes"
	"errors"
	"slices"
	"testing"

	"rstore/internal/types"
)

// Decoder hardening: a stored value read back from any backend (or a
// remote node) must never panic the envelope parser, must fail only with
// ErrCorrupt, and anything it accepts must round-trip through envelope.

func FuzzUnenvelope(f *testing.F) {
	f.Add(envelope(envValue, 12345, []byte("payload")))
	f.Add(envelope(envTombstone, 1, nil))
	f.Add([]byte{})
	f.Add([]byte{2, 0, 0, 0, 0, 0, 0, 0, 0}) // unknown flag byte
	f.Add([]byte{0, 1, 2, 3})                // truncated envelope
	f.Fuzz(func(t *testing.T, data []byte) {
		payload, ts, tombstone, err := unenvelope(data)
		if err != nil {
			if !errors.Is(err, types.ErrCorrupt) {
				t.Fatalf("rejection is not classified as corruption: %v", err)
			}
			return
		}
		flag := byte(envValue)
		if tombstone {
			flag = envTombstone
		}
		if !bytes.Equal(envelope(flag, ts, payload), data) {
			t.Fatalf("accepted envelope does not round-trip (ts=%d tombstone=%v)", ts, tombstone)
		}
	})
}

// FuzzVerdict drives judge with arbitrary observation sets — two bytes per
// replica: a state, a tombstone bit, and a timestamp from a domain of four so
// that ties are common — and checks what every caller relies on.
func FuzzVerdict(f *testing.F) {
	f.Add([]byte{2, 1, 2, 1})             // agreement
	f.Add([]byte{2, 1, 2, 2, 1, 0})       // stale and missing
	f.Add([]byte{6, 3, 2, 3, 3, 0, 0, 0}) // tie, unparsable, unreachable
	f.Add([]byte{0, 0, 3, 0})             // nothing parsable
	f.Fuzz(func(t *testing.T, data []byte) {
		var obs []observation
		for n := 0; 2*n+1 < len(data) && n < 8; n++ {
			o := observation{node: n, state: replicaState(data[2*n] & 3)}
			if o.state == obsHeld {
				o.tomb, o.ts = data[2*n]&4 != 0, uint64(data[2*n+1]&3)
			}
			obs = append(obs, o)
		}
		v := judge(obs)

		anyHeld, allDown, anyRot := false, true, false
		for _, o := range obs {
			anyHeld = anyHeld || o.state == obsHeld
			allDown = allDown && o.state == obsUnreachable
			anyRot = anyRot || o.state == obsUnparsable
		}
		if (v.win >= 0) != anyHeld || v.down != (!anyHeld && allDown) || v.corrupt != (!anyHeld && anyRot) {
			t.Fatalf("%+v: verdict %+v misreads what was answered", obs, v)
		}
		if v.win < 0 {
			if v.complete || len(v.losers) > 0 {
				t.Fatalf("%+v: verdict %+v converges on a winner it does not have", obs, v)
			}
			return
		}
		w := obs[v.win]
		for _, o := range obs {
			loser := slices.Contains(v.losers, o.node)
			switch {
			case o.state == obsHeld && o.node != w.node && newer(o, w):
				t.Fatalf("%+v: winner %+v is not lwwNewer-maximal", obs, w)
			case loser && o.state == obsHeld && o.ts == w.ts && o.tomb == w.tomb:
				t.Fatalf("%+v: loser %+v holds the winning version", obs, o)
			case loser && o.state == obsUnreachable:
				t.Fatalf("%+v: unreachable node %d is to be written to", obs, o.node)
			case v.complete && (loser || o.state == obsUnreachable):
				t.Fatalf("%+v: complete beside loser or unreachable %+v", obs, o)
			}
		}

		// The same replicas observed in another order get the same verdict.
		rev := slices.Clone(obs)
		slices.Reverse(rev)
		rv := judge(rev)
		slices.Sort(v.losers)
		slices.Sort(rv.losers)
		if rev[rv.win].node != w.node || !slices.Equal(rv.losers, v.losers) || rv.complete != v.complete {
			t.Fatalf("%+v: verdict %+v, reversed %+v", obs, v, rv)
		}
	})
}
