// Command rstore is a small VCS-style CLI over a store, mirroring the
// application-server commands of paper §2.4: init, commit, checkout (pull
// a version), get, history, log, and branch.
//
// The store lives in the engine -backend selects; every command opens it,
// acts and closes it again:
//
//   - lsm (default): a local data directory (-data, default .rstore); a
//     mutation is fsynced before the command reports it.
//   - remote: rstore-node daemons (-node-addrs, one node per address);
//     every command talks to them over the wire.
//
// Usage:
//
//	rstore init
//	rstore -data data.d init
//	rstore -backend remote -node-addrs host1:7420,host2:7420 init
//	rstore -backend remote -rf 2 -node-addrs host1:7420,host2:7420 init
//	rstore commit -branch main -put doc1=@file.json -put doc2='{"x":1}' -del doc3
//	rstore log
//	rstore checkout -version 3 -out dir/
//	rstore get -key doc1 -version 3
//	rstore history -key doc1
//	rstore branch -name dev -version 2
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strings"

	"rstore"
	"rstore/internal/kvstore"
)

func main() {
	// Ctrl-C cancels in-flight queries (the streaming read path aborts
	// mid-fetch); mutations run detached so an interrupt cannot leave a
	// half-written store.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if err := run(ctx, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "rstore:", libError{err})
		os.Exit(1)
	}
}

// libError is an error of the rstore library as the CLI reports it. The
// library's errors name it ("rstore: ..."), and so does the line main
// prints, so the name is dropped here to appear once.
type libError struct{ error }

func (e libError) Error() string { return strings.TrimPrefix(e.error.Error(), "rstore: ") }
func (e libError) Unwrap() error { return e.error }

func run(ctx context.Context, args []string) error {
	global := flag.NewFlagSet("rstore", flag.ContinueOnError)
	backend := global.String("backend", rstore.EngineLSM, "storage backend: lsm|remote")
	dataDir := global.String("data", ".rstore", "data directory for -backend lsm")
	nodeAddrs := global.String("node-addrs", "", "comma-separated rstore-node addresses for -backend remote")
	rf := global.Int("rf", 1, "replication factor (-backend remote; repair keeps replicas converged).\nThe cluster is pinned at the value init used: a command passing another is refused")
	if err := global.Parse(args); err != nil {
		return err
	}
	env := cliEnv{
		backend: *backend, data: *dataDir,
		addrs: rstore.SplitNodeAddrs(*nodeAddrs), rf: *rf,
	}
	switch env.backend {
	case rstore.EngineLSM:
	case rstore.EngineRemote:
		if len(env.addrs) == 0 {
			return fmt.Errorf("-backend remote needs -node-addrs host:port[,host:port...]")
		}
	default:
		return fmt.Errorf("unknown -backend %q (want lsm or remote)", env.backend)
	}
	rest := global.Args()
	if len(rest) == 0 {
		return fmt.Errorf("need a command: init|commit|log|checkout|get|history|branch|stats")
	}
	cmd, cmdArgs := rest[0], rest[1:]

	if cmd == "init" {
		kv, st, err := env.open(ctx, false)
		if err != nil {
			return err
		}
		// Idempotent with persist's close; releases the data directory's
		// lock on every error path too.
		defer kv.Close()
		if st.NumVersions() > 0 {
			return fmt.Errorf("store already initialized in %s", env.where())
		}
		mctx := context.WithoutCancel(ctx)
		if _, err := st.Commit(mctx, rstore.NoParent, rstore.Change{}); err != nil {
			return err
		}
		if err := st.Flush(mctx); err != nil {
			return err
		}
		if err := st.SetBranch(mctx, "main", 0); err != nil {
			return err
		}
		if err := persist(kv, st); err != nil {
			return err
		}
		fmt.Printf("initialized empty store at %s (root version 0, branch main)\n", env.where())
		return nil
	}

	// Each command parses its flags into a body; one load then runs it. Only
	// commit and branch -name load the store writable: a read never writes.
	var body func(kv *kvstore.Store, st *rstore.Store) error
	writable := false
	switch cmd {
	case "commit":
		fs := flag.NewFlagSet("commit", flag.ContinueOnError)
		branch := fs.String("branch", "main", "branch to advance")
		var puts, dels multiFlag
		fs.Var(&puts, "put", "key=value or key=@file (repeatable)")
		fs.Var(&dels, "del", "key to delete (repeatable)")
		if err := fs.Parse(cmdArgs); err != nil {
			return err
		}
		writable = true
		body = func(kv *kvstore.Store, st *rstore.Store) error {
			parent, err := st.Tip(*branch)
			if err != nil {
				return err
			}
			ch := rstore.Change{Puts: map[rstore.Key][]byte{}}
			for _, p := range puts {
				k, v, ok := strings.Cut(p, "=")
				if !ok {
					return fmt.Errorf("bad -put %q (want key=value)", p)
				}
				var val []byte
				if strings.HasPrefix(v, "@") {
					val, err = os.ReadFile(v[1:])
					if err != nil {
						return err
					}
				} else {
					val = []byte(v)
				}
				ch.Puts[rstore.Key(k)] = val
			}
			for _, k := range dels {
				ch.Deletes = append(ch.Deletes, rstore.Key(k))
			}
			mctx := context.WithoutCancel(ctx)
			v, err := st.Commit(mctx, parent, ch)
			if err != nil {
				return err
			}
			if err := st.Flush(mctx); err != nil {
				return err
			}
			if err := st.SetBranch(mctx, *branch, v); err != nil {
				return err
			}
			if err := persist(kv, st); err != nil {
				return err
			}
			fmt.Printf("committed version %d on %s (%d puts, %d deletes)\n",
				v, *branch, len(ch.Puts), len(ch.Deletes))
			return nil
		}

	case "log":
		body = func(_ *kvstore.Store, st *rstore.Store) error {
			for v := st.NumVersions() - 1; v >= 0; v-- {
				vv := rstore.VersionID(v)
				parents := st.Parents(vv)
				tag := ""
				for _, b := range st.Branches() {
					if tip, err := st.Tip(b); err == nil && tip == vv {
						tag += " <- " + b
					}
				}
				fmt.Printf("version %-4d parents=%v depth=%d%s\n", v, parents, st.Depth(vv), tag)
			}
			return nil
		}

	case "checkout":
		fs := flag.NewFlagSet("checkout", flag.ContinueOnError)
		version := fs.Int("version", -1, "version id")
		branch := fs.String("branch", "", "branch name (alternative to -version)")
		out := fs.String("out", "", "output directory (default: print keys)")
		if err := fs.Parse(cmdArgs); err != nil {
			return err
		}
		body = func(_ *kvstore.Store, st *rstore.Store) error {
			v, err := resolveVersion(st, *version, *branch)
			if err != nil {
				return err
			}
			recs, stats, err := st.GetVersionAll(ctx, v)
			if err != nil {
				return err
			}
			if *out == "" {
				for _, r := range recs {
					fmt.Printf("%s (origin v%d, %d bytes)\n", r.CK.Key, r.CK.Version, len(r.Value))
				}
			} else {
				if err := os.MkdirAll(*out, 0o755); err != nil {
					return err
				}
				for _, r := range recs {
					name := filepath.Join(*out, sanitize(string(r.CK.Key)))
					if err := os.WriteFile(name, r.Value, 0o644); err != nil {
						return err
					}
				}
			}
			fmt.Printf("checked out version %d: %d records (span=%d chunks)\n", v, len(recs), stats.Span)
			return nil
		}

	case "get":
		fs := flag.NewFlagSet("get", flag.ContinueOnError)
		key := fs.String("key", "", "primary key")
		version := fs.Int("version", -1, "version id")
		branch := fs.String("branch", "", "branch name")
		if err := fs.Parse(cmdArgs); err != nil {
			return err
		}
		body = func(_ *kvstore.Store, st *rstore.Store) error {
			v, err := resolveVersion(st, *version, *branch)
			if err != nil {
				return err
			}
			rec, _, err := st.GetRecord(ctx, rstore.Key(*key), v)
			if err != nil {
				return err
			}
			fmt.Printf("%s\n", rec.Value)
			return nil
		}

	case "history":
		fs := flag.NewFlagSet("history", flag.ContinueOnError)
		key := fs.String("key", "", "primary key")
		if err := fs.Parse(cmdArgs); err != nil {
			return err
		}
		body = func(_ *kvstore.Store, st *rstore.Store) error {
			// Stream: revisions print as their chunks arrive.
			cur := st.GetHistory(ctx, rstore.Key(*key))
			for r, err := range cur.Records() {
				if err != nil {
					return err
				}
				fmt.Printf("v%-4d %s\n", r.CK.Version, r.Value)
			}
			return nil
		}

	case "branch":
		fs := flag.NewFlagSet("branch", flag.ContinueOnError)
		name := fs.String("name", "", "branch name")
		version := fs.Int("version", -1, "version id")
		if err := fs.Parse(cmdArgs); err != nil {
			return err
		}
		writable = *name != ""
		body = func(kv *kvstore.Store, st *rstore.Store) error {
			if *name == "" {
				for _, b := range st.Branches() {
					tip, _ := st.Tip(b)
					fmt.Printf("%-12s v%d\n", b, tip)
				}
				return nil
			}
			v, err := resolveVersion(st, *version, "")
			if err != nil {
				return err
			}
			if err := st.SetBranch(context.WithoutCancel(ctx), *name, v); err != nil {
				return err
			}
			if err := persist(kv, st); err != nil {
				return err
			}
			fmt.Printf("branch %s -> v%d\n", *name, v)
			return nil
		}

	case "stats":
		body = func(kv *kvstore.Store, st *rstore.Store) error {
			s := kv.Stats(ctx)
			fmt.Printf("versions:      %d\n", st.NumVersions())
			fmt.Printf("chunks:        %d\n", st.NumChunks())
			fmt.Printf("copies:        %d\n", st.Info().Copies)
			fmt.Printf("pending:       %d\n", st.PendingVersions())
			fmt.Printf("total span:    %d\n", st.TotalVersionSpan())
			fmt.Printf("stored bytes:  %d\n", s.BytesStored)
			return nil
		}

	default:
		return fmt.Errorf("unknown command %q", cmd)
	}

	kv, st, err := env.load(ctx, !writable)
	if err != nil {
		return err
	}
	defer kv.Close() // syncs and releases the data directory or the connections
	return body(kv, st)
}

func resolveVersion(st *rstore.Store, version int, branch string) (rstore.VersionID, error) {
	if branch != "" {
		return st.Tip(branch)
	}
	if version < 0 {
		return 0, fmt.Errorf("need -version or -branch")
	}
	if uint64(version) >= uint64(rstore.NoParent) { // ids are 32 bits; the top one names no version
		return 0, fmt.Errorf("-version %d is not a version id", version)
	}
	return rstore.VersionID(version), nil
}

func sanitize(key string) string {
	return strings.Map(func(r rune) rune {
		if r == '/' || r == '\\' || r == 0 {
			return '_'
		}
		return r
	}, key)
}

// cliEnv is the storage environment the global flags select.
type cliEnv struct {
	backend string   // "lsm" or "remote"
	data    string   // lsm data directory
	addrs   []string // rstore-node addresses (remote backend)
	rf      int      // replication factor (remote backend)
}

// where names the place the store lives, for messages.
func (e cliEnv) where() string {
	if e.backend == rstore.EngineRemote {
		return "nodes " + strings.Join(e.addrs, ",")
	}
	return e.data
}

// openCluster opens the cluster in the configured backend (validated up
// front in run): one lsm node in the data directory, or one node per daemon
// address.
func (e cliEnv) openCluster(ctx context.Context) (*kvstore.Store, error) {
	if e.backend == rstore.EngineRemote {
		return rstore.OpenCluster(ctx, rstore.ClusterConfig{
			Engine: e.backend, NodeAddrs: e.addrs,
			ReplicationFactor: e.rf,
		})
	}
	return rstore.OpenCluster(ctx, rstore.ClusterConfig{Nodes: 1, Engine: e.backend, Dir: e.data})
}

// open opens the cluster and the store it holds, an empty one if it holds
// none, read-only if readOnly; the caller closes the cluster.
func (e cliEnv) open(ctx context.Context, readOnly bool) (*kvstore.Store, *rstore.Store, error) {
	kv, err := e.openCluster(ctx)
	if err != nil {
		return nil, nil, err
	}
	st, err := rstore.Open(ctx, rstore.Config{KV: kv, ReadOnly: readOnly})
	if err != nil {
		kv.Close()
		return nil, nil, fmt.Errorf("open store %s: %w", e.where(), libError{err})
	}
	return kv, st, nil
}

// load opens the store init created: from the data directory, or from the
// remote nodes' contents. A store without versions is one init never made.
// A data directory without init's node-0 is refused before anything opens:
// opening it would create the node's files, its pin and a root.
func (e cliEnv) load(ctx context.Context, readOnly bool) (*kvstore.Store, *rstore.Store, error) {
	if e.backend != rstore.EngineRemote {
		if _, err := os.Stat(filepath.Join(e.data, "node-0")); err != nil {
			return nil, nil, fmt.Errorf("open store %s (run init first): %w", e.data, err)
		}
	}
	kv, st, err := e.open(ctx, readOnly)
	if err != nil {
		return nil, nil, err
	}
	if st.NumVersions() == 0 {
		kv.Close()
		return nil, nil, fmt.Errorf("no store in %s (run init first)", e.where())
	}
	return kv, st, nil
}

// persist places whatever is pending and releases the cluster. Each commit
// was durable when it returned; Close syncs what a flush leaves unsynced.
func persist(kv *kvstore.Store, st *rstore.Store) error {
	if err := st.Flush(context.Background()); err != nil { // durability point: never cancellable
		return err
	}
	return kv.Close()
}

// multiFlag collects repeatable string flags.
type multiFlag []string

func (m *multiFlag) String() string     { return strings.Join(*m, ",") }
func (m *multiFlag) Set(v string) error { *m = append(*m, v); return nil }
