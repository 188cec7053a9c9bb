package stm

import (
	"testing"
	"time"
)

// quietProbe records hook invocations and the last decision it was shown;
// it has no open hooks.
type quietProbe struct {
	log     *[]string
	name    string
	sawDec  Decision
	sawWait time.Duration
}

func (p *quietProbe) OnBegin(*Tx)  { *p.log = append(*p.log, p.name+".begin") }
func (p *quietProbe) OnCommit(*Tx) { *p.log = append(*p.log, p.name+".commit") }
func (p *quietProbe) OnAbort(*Tx)  { *p.log = append(*p.log, p.name+".abort") }
func (p *quietProbe) OnResolve(_, _ *Tx, _ Kind, dec Decision, wait time.Duration) {
	*p.log = append(*p.log, p.name+".resolve")
	p.sawDec, p.sawWait = dec, wait
}

// recProbe is a quietProbe that also wants the per-open calls.
type recProbe struct{ quietProbe }

func newRecProbe(log *[]string, name string) *recProbe {
	return &recProbe{quietProbe{log: log, name: name}}
}

func (p *recProbe) OnOpen(*Tx)    { *p.log = append(*p.log, p.name+".open") }
func (p *recProbe) OnAcquire(*Tx) { *p.log = append(*p.log, p.name+".acquire") }

func TestCombineProbesNilFastPath(t *testing.T) {
	if CombineProbes(nil, nil) != nil {
		t.Error("nil+nil should stay nil (preserves the no-probe fast path)")
	}
	var log []string
	p := newRecProbe(&log, "a")
	if got := CombineProbes(p, nil); got != Probe(p) {
		t.Error("a+nil should be a itself")
	}
	if got := CombineProbes(nil, p); got != Probe(p) {
		t.Error("nil+b should be b itself")
	}
}

// aggressiveTestCM always aborts the enemy.
type aggressiveTestCM struct{ NopManager }

func (aggressiveTestCM) Resolve(_, _ *Tx, _ Kind, _ int) (Decision, time.Duration) {
	return AbortEnemy, 0
}

// isOpenProbe reports whether the runtime would dispatch p's open hooks.
func isOpenProbe(p Probe) bool {
	_, ok := p.(OpenProbe)
	return ok
}

func TestOpenHookFree(t *testing.T) {
	var log []string
	loud := newRecProbe(&log, "loud")
	quiet := &quietProbe{log: &log, name: "quiet"}

	// A probe with open hooks keeps per-open dispatch.
	rt := New(1, aggressiveTestCM{}, WithProbe(loud))
	if rt.openProbe == nil {
		t.Error("an OpenProbe must keep open dispatch")
	}
	// A probe without them removes it; commit hooks still fire.
	rt = New(1, aggressiveTestCM{}, WithProbe(quiet))
	if rt.openProbe != nil {
		t.Error("a probe without open hooks must leave openProbe nil")
	}
	v := NewTVar(0)
	rt.Thread(0).Atomic(func(tx *Tx) { Write(tx, v, Read(tx, v)+1) })
	saw := false
	for _, ev := range log {
		if ev == "quiet.commit" {
			saw = true
		}
	}
	if !saw {
		t.Fatalf("commit hook must still fire: %v", log)
	}

	// A chain is open-hook-free only if both halves are, and forwards the
	// open hooks only to the halves that have them.
	if isOpenProbe(CombineProbes(quiet, quiet)) {
		t.Error("quiet+quiet chain should be open-hook-free")
	}
	for _, c := range []struct {
		name string
		p    Probe
		want []string
	}{
		{"loud+quiet", CombineProbes(loud, quiet), []string{"loud.open", "loud.acquire"}},
		{"quiet+loud", CombineProbes(quiet, loud), []string{"loud.open", "loud.acquire"}},
		{"(quiet+loud)+quiet", CombineProbes(CombineProbes(quiet, loud), quiet), []string{"loud.open", "loud.acquire"}},
	} {
		op, ok := c.p.(OpenProbe)
		if !ok {
			t.Errorf("%s chain must keep open hooks", c.name)
			continue
		}
		log = log[:0]
		op.OnOpen(nil)
		op.OnAcquire(nil)
		if len(log) != len(c.want) || log[0] != c.want[0] || log[1] != c.want[1] {
			t.Errorf("%s forwarded open hooks as %v, want %v", c.name, log, c.want)
		}
	}
}

func TestCombineProbesOrderAndThreading(t *testing.T) {
	var log []string
	first := newRecProbe(&log, "a")
	second := newRecProbe(&log, "b")
	p := CombineProbes(first, second)

	tx := &Tx{D: &Desc{}}
	p.(OpenProbe).OnOpen(tx)
	p.(OpenProbe).OnAcquire(tx)
	p.OnCommit(tx)
	p.OnAbort(tx)
	p.OnResolve(tx, tx, WriteWrite, Wait, 7*time.Microsecond)

	want := []string{
		"a.open", "b.open",
		"a.acquire", "b.acquire",
		"a.commit", "b.commit",
		"a.abort", "b.abort",
		"a.resolve", "b.resolve",
	}
	if len(log) != len(want) {
		t.Fatalf("log = %v", log)
	}
	for i := range want {
		if log[i] != want[i] {
			t.Fatalf("log[%d] = %q, want %q (full: %v)", i, log[i], want[i], log)
		}
	}
	// Both halves are shown the same decision.
	for _, q := range []*recProbe{first, second} {
		if q.sawDec != Wait || q.sawWait != 7*time.Microsecond {
			t.Errorf("%s saw %v/%v, want Wait/7µs", q.name, q.sawDec, q.sawWait)
		}
	}
}
