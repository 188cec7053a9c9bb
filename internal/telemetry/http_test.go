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
	r.NewHistogram("wincm_tx_attempts", "attempts needed per committed transaction", 1).Observe(0, 9)
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
	if !strings.Contains(body, "wincm_tx_attempts_sum 9") {
		t.Errorf("/metrics missing histogram:\n%s", body)
	}

	code, body, _ = get(t, srv, "/debug/pprof/")
	if code != http.StatusOK || !strings.Contains(body, "goroutine") {
		t.Errorf("/debug/pprof/ status=%d", code)
	}

	code, body, _ = get(t, srv, "/")
	if code != http.StatusOK || !strings.Contains(body, "/metrics") || strings.Contains(body, "/trace") {
		t.Errorf("index status=%d body=%q", code, body)
	}
	// The live trace routes are gone: a trace is read through
	// winbench -fig trace and its -trace-out file.
	for _, path := range []string{"/nope", "/trace/snapshot", "/trace/dump"} {
		if code, _, _ = get(t, srv, path); code != http.StatusNotFound {
			t.Errorf("%s status = %d, want 404", path, code)
		}
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
	r1.RegisterGauge(telemetry.NewGauge("run1", "", func() float64 { return 1 }))
	hub.Install(r1)
	if _, body, _ := get(t, srv, "/metrics"); !strings.Contains(body, "run1 1") {
		t.Error("scrape missed installed registry")
	}
	r2 := telemetry.NewRegistry()
	r2.RegisterGauge(telemetry.NewGauge("run2", "", func() float64 { return 2 }))
	hub.Install(r2)
	_, body, _ := get(t, srv, "/metrics")
	if strings.Contains(body, "run1") || !strings.Contains(body, "run2 2") {
		t.Errorf("scrape after swap:\n%s", body)
	}
	hub.Install(nil)
	if _, body, _ := get(t, srv, "/metrics"); strings.Contains(body, "run2") {
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
