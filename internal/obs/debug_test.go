package obs

import (
	"io"
	"net/http"
	"strings"
	"testing"
)

// TestStartDebug: the debug listener serves pprof's index and profiles, and
// nothing else.
func TestStartDebug(t *testing.T) {
	srv, err := StartDebug("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	for path, want := range map[string]int{
		"/debug/pprof/":          http.StatusOK,
		"/debug/pprof/goroutine": http.StatusOK,
		"/debug/pprof/cmdline":   http.StatusOK,
		"/metrics":               http.StatusNotFound,
		"/":                      http.StatusNotFound,
	} {
		resp, err := http.Get("http://" + srv.Addr + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("GET %s: %d, want %d", path, resp.StatusCode, want)
		}
		if path == "/debug/pprof/" && !strings.Contains(string(body), "goroutine") {
			t.Errorf("GET %s lists no goroutine profile:\n%s", path, body)
		}
	}
	if _, err := StartDebug(srv.Addr); err == nil {
		t.Error("a second listener on the same address started")
	}
}
