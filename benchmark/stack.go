package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"time"

	"rstore/internal/client"
	"rstore/internal/core"
	"rstore/internal/engine"
	"rstore/internal/engine/disklog"
	"rstore/internal/engine/lsm"
	"rstore/internal/engine/remote"
	"rstore/internal/engine/remote/engined"
	"rstore/internal/kvstore"
	"rstore/internal/server"
)

// The stack under test, identical for every workload and all in this
// process, with the shipped defaults of rstore-node and rstore-server:
//
//	internal/client ──HTTP──▶ server.Server ─▶ core.Store ─▶ kvstore (rf 2)
//	    ──wire──▶ 3 × engined ─▶ lsm (one data directory each)
const (
	stackNodes = 3
	stackRF    = 2
	batchSize  = 16 // rstore-server -batch
)

type stackConfig struct {
	dir     string    // node i keeps its data under dir/node-i
	backend string    // "lsm" or "disklog"
	rec     *recorder // nil: no decorators, kvstore speaks EngineRemote itself
}

type stack struct {
	engines []engine.Backend
	nodes   []*engined.Server
	remotes []*remote.Client // traced stacks only
	kv      *kvstore.Store
	store   *core.Store
	srv     *http.Server
	served  chan error
	url     string
	opened  time.Duration // what core.Open or core.Load took
}

func openEngine(backend, dir string) (engine.Backend, error) {
	switch backend {
	case "lsm":
		return lsm.Open(dir, lsm.Options{})
	case "disklog":
		return disklog.Open(dir, disklog.Options{})
	}
	return nil, fmt.Errorf("unknown backend %q (want lsm or disklog)", backend)
}

// bootStack starts the whole stack on cfg.dir. With load it reopens the
// store persisted there (core.Load); otherwise it opens an empty one.
func bootStack(ctx context.Context, cfg stackConfig, load bool) (_ *stack, err error) {
	s := &stack{}
	defer func() {
		if err != nil {
			s.close()
		}
	}()
	addrs := make([]string, stackNodes)
	for i := range addrs {
		be, err := openEngine(cfg.backend, filepath.Join(cfg.dir, fmt.Sprintf("node-%d", i)))
		if err != nil {
			return nil, err
		}
		s.engines = append(s.engines, be)
		served := be
		if cfg.rec != nil {
			served = &tracedBackend{inner: be, rec: cfg.rec, layer: layerLSM, node: i}
		}
		node, err := engined.Start("127.0.0.1:0", served)
		if err != nil {
			return nil, err
		}
		s.nodes = append(s.nodes, node)
		addrs[i] = node.Addr().String()
	}

	kvCfg := kvstore.Config{ReplicationFactor: stackRF, Cost: kvstore.DefaultCostModel()}
	if cfg.rec == nil {
		kvCfg.Engine, kvCfg.NodeAddrs = kvstore.EngineRemote, addrs
	} else {
		kvCfg.Nodes = stackNodes
		kvCfg.NewBackend = func(id int) (engine.Backend, error) {
			c, err := remote.Dial(addrs[id], remote.Options{})
			if err != nil {
				return nil, err
			}
			s.remotes = append(s.remotes, c)
			return &tracedBackend{inner: c, rec: cfg.rec, layer: layerRemote, node: id}, nil
		}
	}
	if s.kv, err = kvstore.Open(ctx, kvCfg); err != nil {
		return nil, err
	}

	coreCfg := core.Config{KV: s.kv, BatchSize: batchSize, SubChunkK: 1, ChunkCapacity: 1 << 20}
	t0 := time.Now()
	if load {
		s.store, err = core.Load(ctx, coreCfg)
	} else {
		s.store, err = core.Open(ctx, coreCfg)
	}
	if err != nil {
		return nil, err
	}
	s.opened = time.Since(t0)

	var handler http.Handler = server.New(s.store)
	if cfg.rec != nil {
		handler = traceMiddleware(cfg.rec, handler)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s.srv = &http.Server{Handler: handler, ReadHeaderTimeout: 10 * time.Second}
	s.served = make(chan error, 1)
	go func() { s.served <- s.srv.Serve(ln) }()
	s.url = "http://" + ln.Addr().String()
	return s, nil
}

// newClient returns a client with a connection of its own, kept alive
// between requests: one per client goroutine.
func (s *stack) newClient() *client.Client {
	tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, IdleConnTimeout: time.Minute}
	return client.New(s.url, &http.Client{Transport: headerTransport{base: tr}})
}

// breakerTrips sums the failure detectors' closed→open transitions.
func (s *stack) breakerTrips(ctx context.Context) int64 {
	if len(s.remotes) == 0 {
		return s.kv.Stats(ctx).BreakerTrips
	}
	var n int64
	for _, c := range s.remotes {
		n += c.BreakerStats().Trips
	}
	return n
}

// close stops everything top-down and waits for each part; the data
// directory stays.
func (s *stack) close() error {
	var errs []error
	if s.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		if err := s.srv.Shutdown(ctx); err != nil {
			errs = append(errs, err, s.srv.Close())
		}
		cancel()
		if err := <-s.served; !errors.Is(err, http.ErrServerClosed) {
			errs = append(errs, err)
		}
	}
	if s.store != nil {
		errs = append(errs, s.store.Close())
	}
	if s.kv != nil {
		errs = append(errs, s.kv.Close())
	}
	for _, n := range s.nodes {
		errs = append(errs, n.Close())
	}
	for _, be := range s.engines {
		errs = append(errs, be.Close())
	}
	return errors.Join(errs...)
}
