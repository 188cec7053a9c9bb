package telemetry_test

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"wincm/internal/telemetry"
)

func get(t *testing.T, srv *httptest.Server, path string) (int, string, http.Header) {
	t.Helper()
	resp, err := srv.Client().Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body), resp.Header
}

func TestHandlerEndpoints(t *testing.T) {
	hub := telemetry.NewHub()
	r := telemetry.NewRegistry()
	r.NewCounter("wincm_commits_total", "committed transactions", 1).Add(0, 9)
	hub.Install(r)
	srv := httptest.NewServer(telemetry.Handler(hub))
	defer srv.Close()

	code, body, hdr := get(t, srv, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status = %d", code)
	}
	if ct := hdr.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("Content-Type = %q", ct)
	}
	if !strings.Contains(body, "wincm_commits_total 9") {
		t.Errorf("/metrics missing counter:\n%s", body)
	}

	code, body, _ = get(t, srv, "/debug/pprof/")
	if code != http.StatusOK || !strings.Contains(body, "goroutine") {
		t.Errorf("/debug/pprof/ status=%d", code)
	}

	code, body, _ = get(t, srv, "/")
	if code != http.StatusOK || !strings.Contains(body, "/metrics") {
		t.Errorf("index status=%d body=%q", code, body)
	}
	if code, _, _ = get(t, srv, "/nope"); code != http.StatusNotFound {
		t.Errorf("unknown path status = %d, want 404", code)
	}
}

// TestHubInstallSwapsRegistry: a scrape after Install reads the new run's
// registry — the per-cell registry swap winbench relies on.
func TestHubInstallSwapsRegistry(t *testing.T) {
	hub := telemetry.NewHub()
	srv := httptest.NewServer(telemetry.Handler(hub))
	defer srv.Close()

	if code, _, _ := get(t, srv, "/metrics"); code != http.StatusOK {
		t.Fatalf("empty hub scrape status = %d", code)
	}
	r1 := telemetry.NewRegistry()
	r1.NewCounter("run1_total", "", 1).Add(0, 1)
	hub.Install(r1)
	if _, body, _ := get(t, srv, "/metrics"); !strings.Contains(body, "run1_total 1") {
		t.Error("scrape missed installed registry")
	}
	r2 := telemetry.NewRegistry()
	r2.NewCounter("run2_total", "", 1).Add(0, 2)
	hub.Install(r2)
	_, body, _ := get(t, srv, "/metrics")
	if strings.Contains(body, "run1_total") || !strings.Contains(body, "run2_total 2") {
		t.Errorf("scrape after swap:\n%s", body)
	}
	hub.Install(nil)
	if _, body, _ := get(t, srv, "/metrics"); strings.Contains(body, "run2_total") {
		t.Errorf("nil Install did not reset:\n%s", body)
	}
	if hub.Current() == nil {
		t.Error("Current is nil after Install(nil)")
	}
}

func TestServeBindsAndCloses(t *testing.T) {
	hub := telemetry.NewHub()
	srv, addr, err := telemetry.Serve("127.0.0.1:0", hub)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatalf("scrape: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("status = %d", resp.StatusCode)
	}
	if err := srv.Close(); err != nil {
		t.Errorf("close: %v", err)
	}
}
