package lockorder

// An Edge declares one permitted lock-order pair: To may be acquired while
// From is held. Locks carry their canonical rank-table identity —
// "<pkg-path>.<TypeName>.<field>" for struct-field mutexes (one rank per
// type, covering every instance), "<pkg-path>.<var>" for package-level
// ones. Reason documents why the nesting is safe, in the spirit of the
// escape hatch: rankings stay auditable.
type Edge struct {
	From, To string
	Reason   string
}

// Table is the module's lock-rank order. lockorder requires every observed
// nesting to appear here and the relation to stay acyclic (verified by the
// analyzer on every run and by TestTableAcyclic). Adding a row is a claim
// that every holder of From may block on To and no holder of To ever
// blocks on From's holders — justify it in Reason.
var Table = []Edge{
	{
		From:   "rstore/internal/engine/lsm.Backend.compactMu",
		To:     "rstore/internal/engine/lsm.Backend.mu",
		Reason: "every merge (Compact's and the tier loop a flushing write call runs after releasing mu) holds compactMu throughout and takes mu only to capture its victims and to install its output; mu holders never take compactMu",
	},
	{
		From:   "rstore/internal/engine/lsm.Backend.mu",
		To:     "rstore/internal/engine/lsm.cacheShard.mu",
		Reason: "writes and reads under mu update the block cache; cache shards are leaf locks protecting only their own map",
	},
	{
		From:   "rstore/internal/engine/lsm.Backend.compactMu",
		To:     "rstore/internal/engine/lsm.cacheShard.mu",
		Reason: "merges under compactMu read their victims through the block cache with mu released; cache shards are leaf locks",
	},
	{
		From:   "rstore/internal/core.Store.wmu",
		To:     "rstore/internal/core.Store.mu",
		Reason: "a core writer holds wmu across its storage I/O and takes mu only to install the results in memory; plans take mu alone and never wmu",
	},
	{
		From:   "rstore/internal/core.Store.wmu",
		To:     "rstore/internal/kvstore.repairer.mu",
		Reason: "core writers write through kvstore under wmu, and its read-repair bookkeeping takes its own short-lived locks; kvstore never calls back into core",
	},
	{
		From:   "rstore/internal/core.Store.wmu",
		To:     "rstore/internal/kvstore.repairer.hmu",
		Reason: "core writers can park hints in kvstore under wmu; the hint-queue lock is a leaf and kvstore never calls back into core",
	},
	{
		From:   "rstore/internal/core.Store.wmu",
		To:     "rstore/internal/kvstore.repairer.kmu",
		Reason: "core writers mark the keys they write in kvstore under wmu; kmu is a leaf held only for map updates, a write waiting out a key's collection releases it (sync.Cond), and the collection never calls back into core",
	},
}
