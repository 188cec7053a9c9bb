package core

import (
	"reflect"
	"testing"
)

// claimLines records in owner that thread i writes the 64-B lines under
// state v (an addressable struct): v's bytes up to a trailing blank pad,
// plus whatever a pointer or interface field of v points at — per-thread
// state reached through the struct is written just the same. It reports
// every line another thread already claimed.
func claimLines(t *testing.T, owner map[uintptr]int, i int, v reflect.Value) {
	t.Helper()
	claim := func(what string, lo, n uintptr) {
		for line := lo / 64; line <= (lo+n-1)/64; line++ {
			if o, ok := owner[line]; ok && o != i {
				t.Errorf("thread %d's %s shares a cache line with thread %d's state", i, what, o)
			}
			owner[line] = i
		}
	}
	typ := v.Type()
	n := typ.Size()
	if last := typ.Field(typ.NumField() - 1); last.Name == "_" {
		n = last.Offset
	}
	claim(typ.Name(), v.UnsafeAddr(), n)
	for f := 0; f < v.NumField(); f++ {
		fv := v.Field(f)
		if fv.Kind() == reflect.Interface && !fv.IsNil() {
			fv = fv.Elem()
		}
		if fv.Kind() == reflect.Pointer && !fv.IsNil() {
			claim(typ.Field(f).Name, fv.Pointer(), fv.Type().Elem().Size())
		}
	}
}

// TestThreadStatesOwnTheirLines: every word the manager writes for a
// thread's transactions — the window bookkeeping, the π⁽²⁾ stream, the
// contention estimate — lies on cache lines no other thread's state
// touches, so an uncontended commit never bounces a line between cores.
func TestThreadStatesOwnTheirLines(t *testing.T) {
	for _, v := range []Variant{Online, Adaptive, AdaptiveImprovedDynamic} {
		for _, m := range []int{2, 4, 8} {
			mgr := New(v, m)
			owner := map[uintptr]int{}
			for i, st := range mgr.threads {
				claimLines(t, owner, i, reflect.ValueOf(st).Elem())
			}
		}
	}
}
