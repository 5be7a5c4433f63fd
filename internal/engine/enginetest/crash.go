package enginetest

import (
	"context"
	"fmt"
	"maps"
	"path"
	"slices"
	"strings"
	"testing"

	"rstore/internal/engine"
)

// Engine is what the harnesses drive: a durable backend that compacts.
type Engine interface {
	engine.Backend
	engine.Compactor
}

// Crash describes one durable engine to CrashAnywhere.
type Crash struct {
	// Open opens (or recovers) the engine rooted at dir on fsys, configured
	// small enough for the workload to flush and merge often.
	Open func(fsys *MemFS, dir string) (Engine, error)
	// DataGlobs match the names of the files CompactionStats.DiskBytes
	// counts; DebrisGlobs those no recovery may leave.
	DataGlobs, DebrisGlobs []string
	// Check, when set, holds a recovered engine to its own invariants.
	Check func(t *testing.T, b Engine)
	// Points are the moments the engine once named for crash injection,
	// each with the mutating call after which it stood. The workload must
	// reach every one.
	Points []Point
}

// Point is one named crash moment: At reports whether calls[i] is the
// mutating call after which it stood.
type Point struct {
	Name string
	At   func(calls []Call, i int) bool
}

// crashOp is one step of the workload: a put, delete or batch to one
// table, or a Compact or Close of them all.
type crashOp struct {
	kind, table string
	entries     []engine.Entry
}

// durable reports whether op's acknowledgement makes table's every earlier
// write durable: a batch to it, or a Compact or Close.
func (op crashOp) durable(table string) bool {
	return op.table == table && op.kind == "batch" || op.table == ""
}

func (op crashOp) String() string {
	if op.table == "" {
		return op.kind
	}
	return op.kind + " " + op.table
}

// crashWorkload is the one deterministic workload CrashAnywhere drives: at
// lsm's 4 KiB memtable and four-table tier — a sorted batch of 4 KiB or more
// is ingested, a batch under 512 bytes never — it reaches, in order, a table's first log; a
// flush of several tables' memtables; flushes of one and the tier merge they
// end in; an ingest right after an unsynced put to its table; a drain that
// leaves a log mostly dead (log replacement); an ingest over keys a table
// holds and one beside them; deletes that kill a flushed table's every entry
// (retirement); a Compact, which flushes and settles the tier loop; and a
// Close. Every batch meant for the
// log stays under the ingest threshold, and each round of chunk batches
// writes most of the keys of the round before it again, so that its flushed
// table overlaps the others, which stay live, and tiering merges them.
func crashWorkload() []crashOp {
	val := func(tag string, i, n int) []byte {
		return []byte(fmt.Sprintf("%s-%d-%s", tag, i, strings.Repeat("v", n)))
	}
	batch := func(table, prefix, tag string, from, to, size int) crashOp {
		op := crashOp{kind: "batch", table: table}
		for i := from; i < to; i++ {
			op.entries = append(op.entries, engine.Entry{Key: fmt.Sprintf("%s%02d", prefix, i), Value: val(tag, i, size)})
		}
		return op
	}
	put := func(table, key string, value []byte) crashOp {
		return crashOp{kind: "put", table: table, entries: []engine.Entry{{Key: key, Value: value}}}
	}
	del := func(table, key string) crashOp {
		return crashOp{kind: "delete", table: table, entries: []engine.Entry{{Key: key}}}
	}
	ops := []crashOp{
		put("meta", "m0", []byte("root-0")),
		put("meta", "m1", []byte("root-1")),
	}
	// Each round's fifth batch flushes: the first round's chunks and meta,
	// the others chunks alone; the fourth round's flush merges.
	for round, tag := range []string{"a", "b", "c", "d"} {
		for i := 12 * round; i < 12*round+60; i += 12 {
			ops = append(ops, batch("chunks", "c", tag, i, i+12, 20))
		}
	}
	ops = append(ops,
		put("deltas", "d-unsynced", []byte("single")),
		batch("deltas", "d", "ingested", 10, 14, 1100), // the put must not be lost to it
		batch("deltas", "d", "big", 0, 4, 100),
		batch("deltas", "d", "drained", 0, 4, 1),   // the log is mostly dead
		batch("chunks", "c", "over", 0, 6, 700),    // ingested over merged keys
		batch("chunks", "x", "beside", 0, 4, 1100), // ingested beside every table
		put("chunks", "c00", val("c", 0, 20)),
		del("meta", "m0"),
		del("meta", "m1"), // meta's flushed table dies
		del("chunks", "c01"),
		crashOp{kind: "compact"},
		put("meta", "m2", []byte("root-2")),
		batch("chunks", "c", "after", 0, 2, 30),
		put("meta", "m3", []byte("root-3")),
		del("chunks", "c00"),
		crashOp{kind: "close"},
	)
	return ops
}

// crashRun is CrashAnywhere's state while the workload runs.
type crashRun struct {
	t      *testing.T
	h      Crash
	fs     *MemFS
	dir    string
	ops    []crashOp
	tables []string
	known  map[string]bool // the tables, as a set
	// done counts the acknowledged ops; ops[done] is in flight while
	// running.
	done    int
	running bool
	seen    map[string]bool // images opened, by what decides their verdict
	opened  [2]int          // process-death, power-loss images opened
}

// CrashAnywhere runs the workload once on a MemFS and, after every mutating
// call it makes, recovers two images of the disk on copies: process death
// (everything written so far) and power loss (only synced bytes and synced
// directory entries). Each table of a recovered image must read, by Scan, as
// its model after some prefix of its operations: at least every
// acknowledged one after a process death, and every one acknowledged before
// the table's last durable acknowledgement (a batch to it, a Compact) after
// a power loss. The image must also hold no debris, pass
// h.Check, count in DiskBytes exactly its data files, take a batch and a
// Compact, and, closed cleanly, reopen to the same contents without
// deleting anything.
// Finally every one of h.Points, a subtest each, must have been reached.
func CrashAnywhere(t *testing.T, h Crash) {
	r := &crashRun{t: t, h: h, fs: NewMemFS(), dir: "/data/node", ops: crashWorkload(), known: map[string]bool{}, seen: map[string]bool{}}
	for _, op := range r.ops {
		if op.table != "" && !r.known[op.table] {
			r.known[op.table] = true
			r.tables = append(r.tables, op.table)
		}
	}
	r.fs.After = r.crash
	r.fs.SetPhase("open")
	b, err := h.Open(r.fs, r.dir)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, op := range r.ops {
		r.fs.SetPhase(op.String())
		r.running = true
		switch op.kind {
		case "put":
			err = b.Put(ctx, op.table, op.entries[0].Key, op.entries[0].Value)
		case "delete":
			err = b.Delete(ctx, op.table, op.entries[0].Key)
		case "batch":
			err = b.BatchPut(ctx, op.table, op.entries)
		case "compact":
			_, err = b.Compact(ctx)
		case "close":
			err = b.Close()
		}
		if err != nil {
			t.Fatalf("%s: %v", op, err)
		}
		r.running = false
		r.done++
	}
	r.fs.After = nil

	calls := r.fs.Calls()
	t.Logf("%d mutating calls; %d process-death and %d power-loss images opened", len(calls), r.opened[0], r.opened[1])
	for _, p := range h.Points {
		t.Run(p.Name, func(t *testing.T) {
			i := 0
			for i < len(calls) && !p.At(calls, i) {
				i++
			}
			if i == len(calls) {
				t.Fatal("the workload never reached it")
			}
			t.Logf("reached after call %d (%s %s, in %s)", i, calls[i].Op, path.Base(calls[i].Path), calls[i].Phase)
		})
	}
}

// crash recovers both images of the disk as it stands.
func (r *crashRun) crash() {
	r.t.Helper()
	r.fs.mu.Lock()
	gens := [2]int{r.fs.gen, r.fs.durable}
	last := r.fs.calls[len(r.fs.calls)-1]
	where := fmt.Sprintf("after call %d (%s %s, in %s)", len(r.fs.calls)-1, last.Op, path.Base(last.Path), last.Phase)
	r.fs.mu.Unlock()
	for i, powerLoss := range []bool{false, true} {
		// What decides the verdict: the image and, per table, the prefixes
		// it may hold.
		key := fmt.Sprint(powerLoss, gens[i])
		for _, table := range r.tables {
			lo, hi := r.prefixes(table, powerLoss)
			key += fmt.Sprint(" ", lo, hi)
		}
		if r.seen[key] {
			continue
		}
		r.seen[key] = true
		r.opened[i]++
		r.recover(r.fs.Image(powerLoss), powerLoss, where)
	}
}

// prefixes is the range of op counts whose table model an image may hold.
func (r *crashRun) prefixes(table string, powerLoss bool) (lo, hi int) {
	lo, hi = r.done, r.done
	if r.running {
		hi++
	}
	if powerLoss {
		for lo = r.done; lo > 0 && !r.ops[lo-1].durable(table); lo-- {
		}
	}
	return lo, hi
}

// model is table's contents after the first n ops.
func (r *crashRun) model(table string, n int) map[string]string {
	m := map[string]string{}
	for _, op := range r.ops[:n] {
		r.apply(m, table, op)
	}
	return m
}

func (r *crashRun) apply(m map[string]string, table string, op crashOp) {
	switch {
	case op.table != table:
	case op.kind == "delete":
		delete(m, op.entries[0].Key)
	default:
		for _, e := range op.entries {
			m[e.Key] = string(e.Value)
		}
	}
}

// recover opens img, checks it, writes to it, and reopens it.
func (r *crashRun) recover(img *MemFS, powerLoss bool, where string) {
	t := r.t
	t.Helper()
	image := where + ", the process-death image"
	if powerLoss {
		image = where + ", the power-loss image"
	}
	ctx := context.Background()
	b, err := r.h.Open(img, r.dir)
	if err != nil {
		t.Fatalf("%s: recovery: %v", image, err)
	}
	got := r.read(b, image)
	for _, table := range r.tables {
		lo, hi := r.prefixes(table, powerLoss)
		m := r.model(table, lo)
		for n := lo; !maps.Equal(m, got[table]); n++ {
			if n == hi {
				t.Fatalf("%s: %s reads %v, which is its model after no prefix of %d to %d ops", image, table, keys(got[table]), lo, hi)
			}
			r.apply(m, table, r.ops[n])
		}
	}
	st, err := b.CompactionStats(ctx)
	if err != nil {
		t.Fatalf("%s: %v", image, err)
	}
	if disk := r.diskBytes(img, image); st.DiskBytes != disk {
		t.Fatalf("%s: stats say %d disk bytes, the files hold %d", image, st.DiskBytes, disk)
	}
	if r.h.Check != nil {
		r.h.Check(t, b)
	}
	after := engine.Entry{Key: "after-recovery", Value: []byte("x")}
	if err := b.BatchPut(ctx, r.tables[0], []engine.Entry{after}); err != nil {
		t.Fatalf("%s: a write after recovery: %v", image, err)
	}
	if st, err = b.Compact(ctx); err != nil {
		t.Fatalf("%s: a compaction after recovery: %v", image, err)
	}
	if disk := r.diskBytes(img, image); st.DiskBytes != disk {
		t.Fatalf("%s: compacted, stats say %d disk bytes, the files hold %d", image, st.DiskBytes, disk)
	}
	if got = r.read(b, image); got[r.tables[0]][after.Key] != "x" {
		t.Fatalf("%s: the write after recovery reads back as %q", image, got[r.tables[0]][after.Key])
	}
	if err := b.Close(); err != nil {
		t.Fatalf("%s: close after recovery: %v", image, err)
	}
	before := len(img.Calls())
	b, err = r.h.Open(img, r.dir)
	if err != nil {
		t.Fatalf("%s: reopen: %v", image, err)
	}
	defer b.Close()
	for _, c := range img.Calls()[before:] {
		if c.Op == "remove" {
			t.Fatalf("%s: a clean reopen deleted %s", image, c.Path)
		}
	}
	if again := r.read(b, image); !maps.EqualFunc(got, again, maps.Equal) {
		t.Fatalf("%s: a clean reopen reads %v, closed with %v", image, again, got)
	}
	if r.h.Check != nil {
		r.h.Check(t, b)
	}
}

// diskBytes sums the sizes of img's data files, and fails on debris.
func (r *crashRun) diskBytes(img *MemFS, image string) int64 {
	names, err := img.ReadDir(r.dir)
	if err != nil {
		r.t.Fatalf("%s: %v", image, err)
	}
	var disk int64
	for _, name := range names {
		if match(r.h.DebrisGlobs, name) {
			r.t.Fatalf("%s: debris survived recovery: %s", image, name)
		}
		if match(r.h.DataGlobs, name) {
			size, err := img.Size(path.Join(r.dir, name))
			if err != nil {
				r.t.Fatal(err)
			}
			disk += size
		}
	}
	return disk
}

// read scans every table the engine lists; a table outside the workload's
// is a failure.
func (r *crashRun) read(b Engine, image string) map[string]map[string]string {
	ctx := context.Background()
	listed, err := b.Tables(ctx)
	if err != nil {
		r.t.Fatalf("%s: %v", image, err)
	}
	got := map[string]map[string]string{}
	for _, table := range append(listed, r.tables...) {
		if !r.known[table] {
			r.t.Fatalf("%s: a table outside the workload: %q", image, table)
		}
		m := map[string]string{}
		if err := b.Scan(ctx, table, func(k string, v []byte) bool { m[k] = string(v); return true }); err != nil {
			r.t.Fatalf("%s: scan %s: %v", image, table, err)
		}
		got[table] = m
	}
	return got
}

func match(globs []string, name string) bool {
	for _, g := range globs {
		if ok, _ := path.Match(g, name); ok {
			return true
		}
	}
	return false
}

func keys(m map[string]string) []string {
	out := make([]string, 0, len(m))
	for k, v := range m {
		out = append(out, k+"="+v[:min(len(v), 12)])
	}
	slices.Sort(out)
	return out
}
