// Package obs is what the running binaries tell about themselves: today the
// debug listener of their -debug-addr flag, which serves net/http/pprof.
package obs

import (
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"time"
)

// StartDebug listens on addr and serves net/http/pprof's handlers there, and
// nothing else, until the returned server is closed. Its Addr is the
// address it listens on.
func StartDebug(addr string) (*http.Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("debug listener: %w", err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index) // and every named profile under it
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	srv := &http.Server{Addr: ln.Addr().String(), Handler: mux, ReadHeaderTimeout: 10 * time.Second}
	go srv.Serve(ln) // returns once srv is closed
	return srv, nil
}
