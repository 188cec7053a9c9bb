package telemetry

import (
	"testing"
	"time"
)

// TestSamplerCap lowers the sampler's cap to 3 (sample reads it under the
// lock) and checks that the series stops there and counts what it drops.
func TestSamplerCap(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("cap_total", "", 1)
	s := StartSampler(r, 5*time.Millisecond)
	s.mu.Lock()
	s.maxPts = 3
	s.mu.Unlock()
	time.Sleep(60 * time.Millisecond)
	s.Stop()
	if got := len(s.Points()); got != 3 {
		t.Errorf("retained %d points, want cap 3", got)
	}
	if s.Dropped() == 0 {
		t.Error("cap exceeded but nothing dropped")
	}
}
