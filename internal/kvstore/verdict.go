package kvstore

// The divergence verdict: the one place that decides, from what a key's
// replicas answered, which version wins, which replicas must be overwritten
// with it, and whether they were all seen to agree. The read path, Scan and
// the anti-entropy loop gather observations their own way and all hand them
// to judge; what a verdict sets in motion is repairer.settle's business
// (repair.go).

// replicaState is how one replica answered for one key.
type replicaState uint8

const (
	// obsUnreachable: the node is down or its request failed as unavailable.
	// It decides nothing and cannot be fixed now.
	obsUnreachable replicaState = iota
	// obsAbsent: the replica answered and holds nothing under the key.
	obsAbsent
	// obsHeld: the replica holds a well-formed envelope; ts and tomb are set.
	obsHeld
	// obsUnparsable: the replica holds bytes the store never wrote (rot, or a
	// foreign writer). They count for nothing, and any well-formed envelope
	// is an improvement on them.
	obsUnparsable
)

// observation is one replica's answer for one key.
type observation struct {
	node  int
	state replicaState
	ts    uint64
	tomb  bool
}

// observe classifies what node answered. err is unavailability only: hard
// engine errors abort their operation before any verdict. payload aliases
// raw and is set for obsHeld only.
func observe(node int, raw []byte, present bool, err error) (o observation, payload []byte) {
	o = observation{node: node, state: obsAbsent}
	if err != nil {
		o.state = obsUnreachable
	} else if present {
		o.state = obsUnparsable
		if payload, o.ts, o.tomb, err = unenvelope(raw); err == nil {
			o.state = obsHeld
		}
	}
	return o, payload
}

// newer reports whether held observation a beats held observation b.
func newer(a, b observation) bool {
	return lwwNewer(a.ts, a.tomb, a.node, b.ts, b.tomb, b.node)
}

// verdict is judge's answer for one key.
type verdict struct {
	// win indexes the winning observation, the lwwNewer-maximal held one:
	// every judge of the same replicas picks it, in whatever order it saw
	// them. -1 when no replica holds a parsable envelope; down and corrupt
	// then say why, and both false means the key is absent.
	win int
	// down: no replica was reachable.
	down bool
	// corrupt: no parsable answer, and at least one that does not parse —
	// there is nothing trustworthy to serve or to spread.
	corrupt bool
	// losers are the reachable replicas to overwrite with the winner: those
	// holding another version or unparsable bytes, and those holding nothing
	// while the winner is a value.
	losers []int
	// gap: the winner is a value and a reachable replica holds nothing.
	// Reads re-read such a key before they serve it (read.go): the replica
	// may be one whose tombstone a repair collected after delivering it to
	// the replica that answered the value.
	gap bool
	// complete: every replica was reachable and agrees with the winner. Under
	// a tombstone winner a replica holding nothing agrees in effect — it has
	// nothing the tombstone protects against — so it neither blocks
	// collection nor gets the tombstone re-created (which would undo GC).
	complete bool
}

// judge is the divergence verdict over one key's per-replica observations.
func judge(obs []observation) verdict {
	v := verdict{win: -1}
	for i, o := range obs {
		if o.state == obsHeld && (v.win < 0 || newer(o, obs[v.win])) {
			v.win = i
		}
	}
	if v.win < 0 {
		v.down = true
		for _, o := range obs {
			v.down = v.down && o.state == obsUnreachable
			v.corrupt = v.corrupt || o.state == obsUnparsable
		}
		return v
	}
	w := obs[v.win]
	v.complete = true
	for _, o := range obs {
		switch {
		case o.state == obsHeld && o.ts == w.ts && o.tomb == w.tomb:
			// Carries the winning version.
		case o.state == obsAbsent && w.tomb:
		case o.state == obsUnreachable:
			v.complete = false
		default:
			v.complete = false
			v.gap = v.gap || o.state == obsAbsent
			v.losers = append(v.losers, o.node)
		}
	}
	return v
}
