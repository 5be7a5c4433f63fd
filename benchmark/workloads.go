package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"rstore/internal/core"
	"rstore/internal/corpus"
	"rstore/internal/kvstore"
	"rstore/internal/types"
	"rstore/internal/workload"
)

// workloadDef is one workload; those not marked extra are BENCHMARK.json's.
// All are closed loops: a client sends its next request when the previous one has
// been answered and checked.
type workloadDef struct {
	name, why          string
	primary, secondary string // what the two reported operation classes are
	floor              [2]int // least samples per class at full scale
	spanKind           opKind // the read whose span chunks_per_read averages
	extra              bool   // runs on request, but is not in BENCHMARK.json
	run                func(ctx context.Context, r *run) error
}

var workloads = []workloadDef{
	{
		name:      "version-scan",
		why:       "bulk path on a dataset that fits the lsm caches: time goes to NDJSON encode/flush, client decode, chunk decode and wire transfer",
		primary:   "full-version read (2 000 records, 1 MB)",
		secondary: "read of a 10 % key range of one version",
		floor:     [2]int{sampleFloor, sampleFloor},
		spanKind:  opVersion,
		run:       runVersionScan,
	},
	{
		name:      "key-lookup",
		why:       "small-answer path on a dataset larger than the lsm caches: a 1 MiB chunk is fetched and decoded per record, so lsm, wire and core decode dominate",
		primary:   "point read of one record in one version",
		secondary: "history of one key across all versions",
		floor:     [2]int{sampleFloor, sampleFloor},
		spanKind:  opHistory, // a point read fetches one chunk by construction
		run:       runKeyLookup,
	},
	{
		name:      "ingest",
		why:       "write path, a chain of small commits on a freshly imported version: core online partitioning, kvstore replicated BatchPut, lsm WAL, flush and compaction",
		primary:   "commit that does not close a batch (acknowledged after the delta is durable)",
		secondary: "commit that closes a batch of 16 (runs online partitioning)",
		floor:     [2]int{sampleFloor, 20}, // one commit in 16 closes a batch
		spanKind:  opVersion,               // versions read back after the last flush
		run:       runIngest,
	},
	{
		name:      "mixed-rw",
		why:       "a reader and a writer at once: cursors hold core's read lock while they stream and commits take the write lock, so a gain for one side that costs the other shows",
		primary:   "full read of the newest acknowledged version, beside a writer",
		secondary: "commit that does not close a batch, beside a reader",
		floor:     [2]int{sampleFloor / 2, sampleFloor / 2},
		spanKind:  opVersion,
		// Left out by ISSUE 14's shrink rule: the driver's 4 + 22 runs per
		// workload of about 30 s each fit its 3 420 s for three workloads
		// with room for a slow box, not for four. It is the one to drop:
		// what it adds are two latencies, and two clients, a server and
		// three storage nodes on two cores make them the noisiest of all
		// (over ten runs the reader's spread by 11 %, the commit's by 33 %).
		extra: true,
		run:   runMixedRW,
	},
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// Fixed work of the write workloads, per second of -seconds: the number of
// commits is a function of the arguments alone, so both sides of a
// comparison ingest the same bytes. The rates make a run last about
// -seconds on the reference box (2 vCPUs).
const (
	ingestCommitsPerSecond = 54
	mixedCommitsPerSecond  = 14
	mixedThink             = 40 * time.Millisecond // writer's pause between commits
	commitRecords          = 3000                  // records of ingest's first version
	commitRecordSize       = 512                   // a commit changes 5 % of a version
	checkReads             = 20                    // versions read back after a write workload
	setupRepeats           = 4
)

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	scale    float64 // < 1 shrinks datasets and lists; tests only
	dataRoot string
	backend  string
	traceOut string
	logf     func(format string, args ...any)
}

// run is one benchmark run: its stack and everything it has measured.
type run struct {
	cfg config
	rec *recorder // nil when untraced
	dir string
	st  *stack

	lapStart   time.Time
	laps       []string  // "phase 1.2s", for the log
	setupTimes []float64 // seconds, one per set-up
	userBytes  int64     // distinct value bytes put into the store
	commits    int       // commits since the store last had nothing pending

	mu        sync.Mutex // mixed-rw runs two clients
	attempted int
	failed    int
	firstErr  error
	lat       [2][]float64 // ms per class, operations timed without tracing
	latTraced [2][]float64 // ms per class, traced operations
	reqClass  map[uint64]int
	spanKind  opKind
	floor     [2]int     // least samples per class, from the workload
	spans     [2]int64   // reads of spanKind and the chunks they fetched
	reads     readTotals // every verified read of the window
	payload   int64      // user bytes read or written by timed operations
	timedOps  int

	timedWall  time.Duration
	host       hostDelta
	calib      [2]float64
	kvRequests int64
	stats      kvstore.Stats // after the timed span, before any replay
	trips      int64
	loadTime   time.Duration
	layers     layerTimes
}

// readTotals accumulates the stats trailers of verified reads.
type readTotals struct {
	span, wasted       int64
	bytesRead, payload int64
}

// phase says how an operation is timed and accounted.
type phase int

const (
	phaseWarm  phase = iota // untimed, unaccounted except for failures
	phaseTimed              // the measured window
	phaseCore               // replay straight on core.Store, traced and captured
	phaseCheck              // read-back after the window: verified, feeds chunks_per_read
)

// traced decides whether the i-th operation of a client's timed window
// records spans: in a traced run, alternate blocks do, so that the traced
// and untraced medians see the same drift.
func (r *run) traced(ph phase, i, block int) bool {
	switch {
	case r.rec == nil:
		return false
	case ph == phaseCore:
		return true
	case ph == phaseTimed:
		return (i/block)%2 == 1
	}
	return false
}

// lap notes how long the phase that just ended took.
func (r *run) lap(phase string) {
	now := time.Now()
	r.laps = append(r.laps, fmt.Sprintf("%s %.1fs", phase, now.Sub(r.lapStart).Seconds()))
	r.lapStart = now
}

func (r *run) fail(err error) {
	r.failed++
	if r.firstErr == nil {
		r.firstErr = err
	}
}

// doRead runs one query through ex, stops the clock, then checks the
// answer against the oracle.
func (r *run) doRead(ctx context.Context, ex executor, q *query, ph phase, traced bool) {
	var sp *openSpan
	if traced {
		ctx, sp = r.rec.root(ctx, ex.layer(), q.kind.String())
	}
	t0 := time.Now()
	recs, st, err := ex.read(ctx, q)
	d := time.Since(t0)
	sp.end(q.want.payload)

	got := answerOf(recs)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	switch {
	case err != nil:
		r.fail(fmt.Errorf("%s v%d %q: %w", q.kind, q.version, q.key, err))
		return
	case !got.matches(q.want):
		r.fail(fmt.Errorf("%s v%d %q: got %d records (digest %x), want %d (%x)", q.kind, q.version, q.key, got.n, got.sum, q.want.n, q.want.sum))
		return
	}
	if ph == phaseTimed || ph == phaseCheck {
		if q.kind == r.spanKind {
			r.spans[0]++
			r.spans[1] += int64(st.span)
		}
		r.reads.span += int64(st.span)
		r.reads.wasted += int64(st.wasted)
		r.reads.bytesRead += st.bytesRead
		r.reads.payload += got.payload
	}
	r.account(ph, q.class, d, got.payload, sp)
}

// account files a successful operation's latency. Callers hold r.mu.
func (r *run) account(ph phase, class int, d time.Duration, payload int64, sp *openSpan) {
	if sp != nil {
		r.reqClass[sp.s.Req] = class
	}
	if ph != phaseTimed {
		return
	}
	r.timedOps++
	r.payload += payload
	if class == classNone {
		return
	}
	ms := float64(d) / float64(time.Millisecond)
	if sp != nil {
		r.latTraced[class] = append(r.latTraced[class], ms)
	} else {
		r.lat[class] = append(r.lat[class], ms)
	}
}

// doCommit draws the next commit off the clock, sends it through ex, and
// folds the acknowledged version into the oracle. The class is decided by
// the commit's position in its batch; closing says which class the
// batch-closing commit belongs to and other the rest.
func (r *run) doCommit(ctx context.Context, ex executor, g *commitGen, ph phase, traced bool, other, closing int) error {
	ch := g.next()
	var size int64
	for _, v := range ch.puts {
		size += int64(len(v))
	}
	r.commits++
	class := other
	if closesBatch(r.commits, batchSize) {
		class = closing
	}
	var sp *openSpan
	if traced {
		ctx, sp = r.rec.root(ctx, ex.layer(), opCommit.String())
	}
	t0 := time.Now()
	v, err := ex.commit(ctx, g.tip, ch)
	d := time.Since(t0)
	sp.end(size)

	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if err != nil {
		r.fail(fmt.Errorf("commit %d on v%d: %w", r.commits, g.tip, err))
		return err // the chain cannot continue past a lost commit
	}
	g.applied(v, ch)
	r.account(ph, class, d, size, sp)
	return nil
}

// cycle sends the list through ex, over and over, for about d. The timed
// window is made of whole passes, so every query of the list weighs the
// same in the statistics and they describe the list, not the part of it
// the window happened to reach: another pass starts only if at least half
// of it fits, or if a class has not reached its sample floor yet (a box
// that is slower than the reference box measures for longer, not less).
// The other phases just stop when d is over.
func (r *run) cycle(ctx context.Context, ex executor, list []query, d time.Duration, ph phase) {
	const block = 12 // six or three groups of the two lists
	floorPasses := r.floorPasses(list)
	start := time.Now()
	for i := 0; ; i++ {
		elapsed := time.Since(start)
		switch passes := i / len(list); {
		case ph != phaseTimed:
			if elapsed >= d {
				return
			}
		case i%len(list) == 0 && passes >= floorPasses:
			if perPass := elapsed / time.Duration(passes); elapsed+perPass/2 > d {
				return
			}
		}
		r.doRead(ctx, ex, &list[i%len(list)], ph, r.traced(ph, i, block))
	}
}

// floorPasses is the number of passes over list that brings every class to
// its sample floor; one in a traced or scaled-down run, which has none.
func (r *run) floorPasses(list []query) int {
	if r.rec != nil || r.cfg.scale < 1 {
		return 1
	}
	var perPass [2]int
	for _, q := range list {
		perPass[q.class]++
	}
	passes := 1
	for c, n := range perPass {
		if n > 0 {
			passes = max(passes, (r.floor[c]+n-1)/n)
		}
	}
	return passes
}

// window splits -seconds: an untraced run measures for all of it; a traced
// run gives the whole stack 70 % and each of the two replays 15 %.
func (r *run) window() (timed, replay time.Duration) {
	total := time.Duration(r.cfg.seconds * float64(time.Second))
	if r.rec == nil {
		return total, 0
	}
	return total * 70 / 100, total * 15 / 100
}

// --- set-up ---

// setUp boots the stack on a fresh directory and loads it, several times,
// keeping the last: at least setupRepeats times, and again until the
// set-ups have taken a second (the small ones take 0.15 s, and the median
// of four such times wanders by a quarter). Each set-up starts from a
// collected heap, so it does not pay for the garbage of the one before.
func (r *run) setUp(ctx context.Context, load func(*stack) error) error {
	var total float64
	for i := 0; i < setupRepeats || (total < 1 && i < 3*setupRepeats); i++ {
		if r.st != nil {
			if err := r.st.close(); err != nil {
				return err
			}
			if err := os.RemoveAll(r.dir); err != nil {
				return err
			}
		}
		runtime.GC()
		t0 := time.Now()
		st, err := bootStack(ctx, stackConfig{dir: r.dir, backend: r.cfg.backend, rec: r.rec}, false)
		if err != nil {
			return err
		}
		r.st = st
		if err := load(st); err != nil {
			return err
		}
		took := time.Since(t0).Seconds()
		r.setupTimes = append(r.setupTimes, took)
		total += took
	}
	return nil
}

// bulkLoad is the set-up of the workloads that start from a fixture: the
// paper's offline Bottom-Up layout.
func (r *run) bulkLoad(ctx context.Context, c *corpus.Corpus) error {
	r.userBytes = userBytes(c)
	return r.setUp(ctx, func(st *stack) error { return st.store.BulkLoad(ctx, c) })
}

// settle is the line between set-up and measurement: the harness has
// dropped the corpus by now, so collect it, and calibrate the host.
func (r *run) settle() {
	runtime.GC()
	r.calib[0] = calibrate()
}

// beginTimed and endTimed bracket the measured window.
func (r *run) beginTimed(ctx context.Context) time.Time {
	if r.rec != nil {
		r.rec.on.Store(true)
	}
	r.kvRequests = r.st.kv.Stats(ctx).Requests
	r.host = startHostDelta()
	return time.Now()
}

func (r *run) endTimed(ctx context.Context, t0 time.Time) {
	r.timedWall = time.Since(t0)
	r.host.stop()
	r.stats = r.st.kv.Stats(ctx)
	r.kvRequests = r.stats.Requests - r.kvRequests
	r.trips = r.st.breakerTrips(ctx)
	r.calib[1] = calibrate()
}

// --- the read workloads ---

func runVersionScan(ctx context.Context, r *run) error {
	c, err := workload.Generate(datasetSpec("V", r.cfg.scale))
	if err != nil {
		return err
	}
	list, err := scanQueries(c, r.cfg.seed)
	if err != nil {
		return err
	}
	r.lap("generate")
	return r.runReads(ctx, c, list)
}

func runKeyLookup(ctx context.Context, r *run) error {
	c, err := workload.Generate(datasetSpec("L", r.cfg.scale))
	if err != nil {
		return err
	}
	groups := lookupGroups
	if r.cfg.scale < 1 {
		groups = 10
	}
	list, err := lookupQueries(c, r.cfg.seed, groups)
	if err != nil {
		return err
	}
	r.lap("generate")
	return r.runReads(ctx, c, list)
}

// runReads is the body of both read workloads: load, warm up on the list
// for a fifth of the window, then cycle through the list for the window.
func (r *run) runReads(ctx context.Context, c *corpus.Corpus, list []query) error {
	if err := r.bulkLoad(ctx, c); err != nil {
		return err
	}
	c = nil
	r.settle()
	r.lap("set-up")

	ex := httpExec{r.st.newClient()}
	timed, replay := r.window()
	r.cycle(ctx, ex, list, timed/5, phaseWarm)
	r.lap("warm-up")

	t0 := r.beginTimed(ctx)
	r.cycle(ctx, ex, list, timed, phaseTimed)
	r.endTimed(ctx, t0)
	r.lap("window")

	if r.rec != nil {
		r.rec.capture.Store(true)
		r.cycle(ctx, coreExec{r.st.store}, list, replay, phaseCore)
		r.rec.capture.Store(false)
		if err := r.replayAndAnalyze(ctx, replay); err != nil {
			return err
		}
		r.lap("replays")
	}
	n := min(len(list), 24)
	return r.reopenAndCheck(ctx, list[:n], false)
}

// --- ingest ---

// runIngest's set-up is the initial import: the first version (3 000
// records, 1.5 MB) committed and placed on an empty store, straight on
// core.Store as a bulk load is. An empty store alone is set up in 4 ms,
// nearly all of it the disk's fsyncs, and a set-up time that is the
// sandbox disk's mood cannot be compared between two sets of runs. The
// timed span is the chain of small commits that follows.
func runIngest(ctx context.Context, r *run) error {
	records := max(20, int(commitRecords*min(1, r.cfg.scale)))
	var g *commitGen
	err := r.setUp(ctx, func(st *stack) error {
		g = newCommitGen(r.cfg.seed, commitRecordSize, records, max(1, records/20))
		ch := g.next()
		v, err := st.store.Commit(ctx, g.tip, core.Change{Puts: ch.puts, Deletes: ch.deletes})
		if err != nil {
			return err
		}
		g.applied(v, ch)
		return st.store.Flush(ctx)
	})
	if err != nil {
		return err
	}
	r.settle()
	r.lap("set-up")

	n := r.commitCount(ingestCommitsPerSecond)
	ex := httpExec{r.st.newClient()}
	viaHTTP, viaCore := n, 0
	if r.rec != nil {
		// 70 % of the commits cross the whole stack, 15 % go straight to
		// core for the replay; the rest are not sent.
		viaHTTP, viaCore = n*70/100/batchSize*batchSize, n*15/100
	}

	// Timed span: first small commit to flush reply.
	t0 := r.beginTimed(ctx)
	for i := 0; i < viaHTTP; i++ {
		if err := r.doCommit(ctx, ex, g, phaseTimed, r.traced(phaseTimed, i, batchSize), classPrimary, classSecondary); err != nil {
			return nil // counted as failed; nothing sensible can follow
		}
	}
	r.timedFlush(ctx, ex)
	r.endTimed(ctx, t0)
	r.userBytes = g.puts
	r.lap("window")

	if err := r.replayCommits(ctx, g, viaCore, classPrimary, classSecondary); err != nil {
		return err
	}
	return r.reopenAndCheck(ctx, versionChecks(g), true)
}

// commitCount is the fixed number of commits of a write workload.
func (r *run) commitCount(perSecond int) int {
	n := int(r.cfg.seconds * float64(perSecond) * r.cfg.scale)
	return max(n, 4*batchSize+2)
}

// timedFlush places what is still pending, inside the timed span.
func (r *run) timedFlush(ctx context.Context, ex executor) {
	t0 := time.Now()
	err := ex.flush(ctx)
	r.attempted++
	if err != nil {
		r.fail(fmt.Errorf("flush: %w", err))
		return
	}
	r.commits = 0
	r.account(phaseTimed, classNone, time.Since(t0), 0, nil)
}

// replayCommits continues the chain straight on core.Store (traced runs
// only), then reissues the captured storage calls on kvstore.
func (r *run) replayCommits(ctx context.Context, g *commitGen, n, other, closing int) error {
	if r.rec == nil {
		return nil
	}
	ex := coreExec{r.st.store}
	r.rec.capture.Store(true)
	for i := 0; i < n; i++ {
		if err := r.doCommit(ctx, ex, g, phaseCore, true, other, closing); err != nil {
			return nil
		}
	}
	r.rec.capture.Store(false)
	_, replay := r.window()
	return r.replayAndAnalyze(ctx, replay)
}

// versionChecks lists versions of a generated chain to read back in full:
// evenly spaced over the chain, so that their mean span does not depend on
// a draw.
func versionChecks(g *commitGen) []query {
	versions := make([]types.VersionID, 0, len(g.heads))
	for v := range g.heads {
		versions = append(versions, v)
	}
	sort.Slice(versions, func(i, j int) bool { return versions[i] < versions[j] })
	n := min(len(versions), checkReads)
	list := make([]query, n)
	for i := range list {
		v := versions[(2*i+1)*len(versions)/(2*n)]
		list[i] = query{kind: opVersion, class: classNone, version: v, want: g.heads[v]}
	}
	return list
}

// --- mixed-rw ---

func runMixedRW(ctx context.Context, r *run) error {
	c, err := workload.Generate(datasetSpec("M", r.cfg.scale))
	if err != nil {
		return err
	}
	g := newCommitGen(r.cfg.seed, commitRecordSize, 0, max(1, c.NumKeys()/20))
	if err := g.adopt(c, types.VersionID(c.NumVersions()-1)); err != nil {
		return err
	}
	r.lap("generate")
	if err := r.bulkLoad(ctx, c); err != nil {
		return err
	}
	c = nil
	r.settle()
	r.lap("set-up")

	// head is what the reader asks for: the newest acknowledged version.
	var headMu sync.Mutex
	head := query{kind: opVersion, class: classPrimary, version: g.tip, want: g.head}
	readHead := func(ex executor, ph phase, traced bool) {
		headMu.Lock()
		q := head
		headMu.Unlock()
		r.doRead(ctx, ex, &q, ph, traced)
	}
	publish := func() {
		headMu.Lock()
		head.version, head.want = g.tip, g.head
		headMu.Unlock()
	}

	reader, writer := httpExec{r.st.newClient()}, httpExec{r.st.newClient()}
	timed, replay := r.window()
	for end := time.Now().Add(timed / 5); time.Now().Before(end); {
		readHead(reader, phaseWarm, false)
	}

	n := r.commitCount(mixedCommitsPerSecond)
	if r.rec != nil {
		n = n * 70 / 100
	}
	block := 8
	if r.cfg.scale < 1 {
		block = 2 // a scaled-down writer is done after a few dozen reads
	}
	// The writer's pause is drawn from [think/2, 3·think/2): with a fixed
	// pause the two loops lock phase, and whether commits land inside or
	// between reads then differs from run to run.
	think := rand.New(rand.NewSource(r.cfg.seed))
	pause := max(time.Millisecond, time.Duration(float64(mixedThink)*min(1, r.cfg.scale)))
	t0 := r.beginTimed(ctx)
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		for i := 0; i < n; i++ {
			if err := r.doCommit(ctx, writer, g, phaseTimed, r.traced(phaseTimed, i, block), classSecondary, classNone); err != nil {
				return
			}
			publish()
			time.Sleep(pause/2 + time.Duration(think.Int63n(int64(pause))))
		}
	}()
reading:
	for i := 0; ; i++ {
		select {
		case <-done:
			break reading
		default:
			readHead(reader, phaseTimed, r.traced(phaseTimed, i, block))
		}
	}
	wg.Wait()
	r.endTimed(ctx, t0)
	r.userBytes += g.puts
	r.lap("warm-up and window")

	if r.rec != nil {
		// Replay, one client at a time: reads for half the replay window,
		// then commits.
		core := coreExec{r.st.store}
		r.rec.capture.Store(true)
		for end := time.Now().Add(replay / 2); time.Now().Before(end); {
			readHead(core, phaseCore, true)
		}
		r.rec.capture.Store(false)
		if err := r.replayCommits(ctx, g, n*15/70, classSecondary, classNone); err != nil {
			return err
		}
	}
	// Nothing is flushed here: the reopen below must replay the pending
	// commits from their delta entries.
	return r.reopenAndCheck(ctx, versionChecks(g), false)
}

// --- after the window ---

// reopenAndCheck reads checks back, closes the stack, reopens the store
// from what is on disk with core.Load, and reads them again: every
// acknowledged write must have survived. fresh says the first read-back
// feeds chunks_per_read (the write workloads have no other reads).
func (r *run) reopenAndCheck(ctx context.Context, checks []query, fresh bool) error {
	if r.rec != nil {
		r.rec.on.Store(false)
	}
	ph := phaseWarm
	if fresh {
		ph = phaseCheck
	}
	ex := httpExec{r.st.newClient()}
	for i := range checks {
		r.doRead(ctx, ex, &checks[i], ph, false)
	}
	old := r.st
	r.st = nil
	if err := old.close(); err != nil {
		return fmt.Errorf("close: %w", err)
	}
	st, err := bootStack(ctx, stackConfig{dir: r.dir, backend: r.cfg.backend, rec: r.rec}, true)
	r.attempted++
	if err != nil {
		r.fail(fmt.Errorf("reopen: %w", err))
		return nil
	}
	r.loadTime = st.opened
	r.st = st
	ex = httpExec{st.newClient()}
	for i := range checks {
		r.doRead(ctx, ex, &checks[i], phaseWarm, false)
	}
	r.lap("read-back, reopen, read-back")
	return nil
}

// layerTimes is the traced run's breakdown, in milliseconds per class.
type layerTimes struct {
	client, aboveHTTP, remote, lsm [2][]float64 // whole-stack operations
	aboveCore                      [2][]float64 // core replay: core + kvstore
	aboveKV                        [2][]float64 // kvstore replay: kvstore alone

	ops, commitOps                      int // whole-stack traced operations
	remoteCalls, lsmCalls, lsmBatchPuts int
	remoteBytes, httpBytes, httpPayload int64
}

// replayAndAnalyze turns the spans recorded so far into layer times, then
// replays the storage calls captured during the core replay on kvstore for
// at most d and adds what that says about kvstore.
func (r *run) replayAndAnalyze(ctx context.Context, d time.Duration) error {
	spans, calls := r.rec.take()
	if err := r.saveSpans(spans); err != nil {
		return err
	}
	lt := &r.layers
	ms := func(ns int64) float64 { return float64(ns) / 1e6 }
	payloadOf := make(map[uint64]int64)
	for _, s := range spans {
		if s.Layer == layerClient {
			payloadOf[s.Req] = s.Bytes
		}
	}
	for req, o := range analyze(spans) {
		class, ok := r.reqClass[req]
		if !ok {
			continue
		}
		if o.layer == layerClient {
			lt.ops++
			lt.remoteCalls += o.remoteCalls
			lt.lsmCalls += o.lsmCalls
			lt.remoteBytes += o.remoteBytes
			lt.httpBytes += o.serverBytes
			lt.httpPayload += payloadOf[req]
			if o.lsmBatchPuts > 0 {
				lt.commitOps++
				lt.lsmBatchPuts += o.lsmBatchPuts
			}
		}
		if class == classNone {
			continue
		}
		switch o.layer {
		case layerClient:
			lt.client[class] = append(lt.client[class], ms(o.rootSelf()))
			lt.aboveHTTP[class] = append(lt.aboveHTTP[class], ms(o.aboveStore()))
			lt.remote[class] = append(lt.remote[class], ms(o.remoteSelf()))
			lt.lsm[class] = append(lt.lsm[class], ms(o.lsm))
		case layerCore:
			lt.aboveCore[class] = append(lt.aboveCore[class], ms(o.aboveStore()))
		}
	}

	byReq := make(map[uint64][]kvCall)
	var order []uint64
	for _, c := range calls {
		if _, ok := byReq[c.req]; !ok {
			order = append(order, c.req)
		}
		byReq[c.req] = append(byReq[c.req], c)
	}
	scratch := make([]byte, 4<<20)
	deadline := time.Now().Add(d)
	replayClass := make(map[uint64]int)
	for _, req := range order {
		class, ok := r.reqClass[req]
		if !ok || class == classNone {
			continue
		}
		if time.Now().After(deadline) {
			break
		}
		rctx, sp := r.rec.root(ctx, layerKVStore, "replay")
		err := replayKV(rctx, r.st.kv, byReq[req], scratch)
		sp.end(0)
		if err != nil {
			return fmt.Errorf("kvstore replay: %w", err)
		}
		replayClass[sp.s.Req] = class
	}
	spans, _ = r.rec.take()
	if err := r.saveSpans(spans); err != nil {
		return err
	}
	for req, o := range analyze(spans) {
		if class, ok := replayClass[req]; ok && o.layer == layerKVStore {
			lt.aboveKV[class] = append(lt.aboveKV[class], ms(o.aboveStore()))
		}
	}
	return nil
}

func (r *run) saveSpans(spans []span) error {
	if r.cfg.traceOut == "" {
		return nil
	}
	return writeSpans(r.cfg.traceOut, spans)
}

// execute runs one workload from nothing to a result.
func execute(ctx context.Context, cfg config) (*result, error) {
	w, ok := workloadByName(cfg.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if _, err := os.Stat(cfg.dataRoot); os.IsNotExist(err) {
		defer os.Remove(cfg.dataRoot) // leave no directory behind that was not there
	}
	if err := os.MkdirAll(cfg.dataRoot, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.dataRoot, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	r := &run{cfg: cfg, dir: filepath.Join(dir, "data"), reqClass: map[uint64]int{}, spanKind: w.spanKind, floor: w.floor, lapStart: time.Now()}
	if cfg.trace {
		r.rec = newRecorder()
	}
	if cfg.traceOut != "" {
		// writeSpans appends: start from an empty regular file.
		if err := os.WriteFile(cfg.traceOut, nil, 0o644); err != nil {
			return nil, err
		}
	}
	describeHost(cfg)

	runErr := w.run(ctx, r)
	if r.st != nil {
		if err := r.st.close(); err != nil && runErr == nil {
			runErr = fmt.Errorf("close: %w", err)
		}
	}
	if runErr != nil {
		return nil, runErr
	}
	return r.report(w)
}
