package telemetry_test

import (
	"testing"
	"time"

	"wincm/internal/telemetry"
)

func TestSamplerSeries(t *testing.T) {
	r := telemetry.NewRegistry()
	c := r.NewCounter("s_total", "", 1)
	r.RegisterGauge(telemetry.NewGauge("s_gauge", "", func() float64 { return float64(c.Value()) }))
	s := telemetry.StartSampler(r, 2*time.Millisecond)
	for i := 0; i < 10; i++ {
		c.Inc(0)
		time.Sleep(2 * time.Millisecond)
	}
	s.Stop()
	s.Stop() // idempotent
	pts := s.Points()
	if len(pts) < 2 {
		t.Fatalf("only %d points", len(pts))
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].At < pts[i-1].At {
			t.Fatal("points not time-ordered")
		}
		if pts[i].Counters["s_total"] < pts[i-1].Counters["s_total"] {
			t.Fatal("counter went backwards across points")
		}
	}
	final := pts[len(pts)-1]
	if final.Counters["s_total"] != 10 {
		t.Errorf("final counter = %d, want 10 (Stop takes a last point)", final.Counters["s_total"])
	}
	if final.Gauges["s_gauge"] != 10 {
		t.Errorf("final gauge = %v", final.Gauges["s_gauge"])
	}
	if s.Dropped() != 0 {
		t.Errorf("Dropped = %d", s.Dropped())
	}
}
