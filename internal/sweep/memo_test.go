package sweep

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// callConcurrently releases n goroutines at once onto m.Do(k, compute)
// and returns every caller's value and error.
func callConcurrently[V any](m *Memo[V], n int, k Key, compute func() (V, error)) ([]V, []error) {
	vals := make([]V, n)
	errs := make([]error, n)
	start := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer wg.Done()
			<-start
			vals[i], errs[i] = m.Do(k, compute)
		}(i)
	}
	close(start)
	wg.Wait()
	return vals, errs
}

// TestMemoComputesOncePerKey checks that concurrent callers of one key
// run its compute exactly once and all share the one value, while a
// different key gets its own.
func TestMemoComputesOncePerKey(t *testing.T) {
	var m Memo[*int]
	var runs [2]atomic.Int64
	for k := range runs {
		key := Key(fmt.Sprint("key-", k))
		vals, errs := callConcurrently(&m, 16, key, func() (*int, error) {
			runs[k].Add(1)
			v := k
			return &v, nil
		})
		for i := range vals {
			if errs[i] != nil {
				t.Fatalf("%s caller %d: %v", key, i, errs[i])
			}
			if vals[i] != vals[0] || *vals[i] != k {
				t.Errorf("%s caller %d got %p (%d), want the shared %p (%d)", key, i, vals[i], *vals[i], vals[0], k)
			}
		}
	}
	for k := range runs {
		if got := runs[k].Load(); got != 1 {
			t.Errorf("key-%d computed %d times, want 1", k, got)
		}
	}
	if v, _ := m.Do("key-0", func() (*int, error) { t.Fatal("recomputed a settled key"); return nil, nil }); *v != 0 {
		t.Errorf("settled key-0 = %d, want 0", *v)
	}
}

// TestMemoSharesErrorVerbatim checks that a failing compute hands the
// very same error to every caller of the key, now and later, without
// running again.
func TestMemoSharesErrorVerbatim(t *testing.T) {
	var m Memo[int]
	boom := errors.New("compute boom")
	var runs atomic.Int64
	compute := func() (int, error) {
		runs.Add(1)
		return 0, boom
	}
	_, errs := callConcurrently(&m, 16, "k", compute)
	_, late := m.Do("k", compute)
	for i, err := range append(errs, late) {
		if err != boom {
			t.Errorf("caller %d: err = %v, want the compute's error verbatim", i, err)
		}
	}
	if got := runs.Load(); got != 1 {
		t.Errorf("compute ran %d times, want 1", got)
	}
}

// TestChaosMemoRecoversPanic checks that a panicking compute fails
// every caller of the key with one ErrCellPanic-wrapped CellPanic
// naming no cell, never a nil error beside a zero value.
func TestChaosMemoRecoversPanic(t *testing.T) {
	var m Memo[*int]
	vals, errs := callConcurrently(&m, 16, "k", func() (*int, error) { panic("compute exploded") })
	for i, err := range errs {
		var cp *CellPanic
		if !errors.As(err, &cp) || !errors.Is(err, ErrCellPanic) {
			t.Fatalf("caller %d: err = %v, want an ErrCellPanic-wrapped CellPanic", i, err)
		}
		if cp.Cell != -1 || cp.Value != "compute exploded" {
			t.Errorf("caller %d: CellPanic{Cell: %d, Value: %v}, want {-1, compute exploded}", i, cp.Cell, cp.Value)
		}
		if err != errs[0] {
			t.Errorf("caller %d carries a different error instance than caller 0", i)
		}
		if vals[i] != nil {
			t.Errorf("caller %d got value %p beside the panic", i, vals[i])
		}
	}
}

// TestMemoForgetRecomputes checks the retry policy: after a failed
// call is forgotten, the next caller of the key computes afresh and
// its value sticks.
func TestMemoForgetRecomputes(t *testing.T) {
	var m Memo[int]
	boom := errors.New("compute boom")
	if _, err := m.Do("k", func() (int, error) { return 0, boom }); err != boom {
		t.Fatalf("first call err = %v, want %v", err, boom)
	}
	m.Forget("k")
	v, err := m.Do("k", func() (int, error) { return 7, nil })
	if err != nil || v != 7 {
		t.Fatalf("after Forget: (%d, %v), want (7, nil)", v, err)
	}
	m.Forget("k") // a successful call is never forgotten
	if v, _ := m.Do("k", func() (int, error) { t.Fatal("recomputed a settled key"); return 0, nil }); v != 7 {
		t.Errorf("settled key = %d, want 7", v)
	}
}

// TestMemoForgetLeavesReclaimedCall checks that a late Forget — from a
// caller of the failed call, arriving after the key was claimed again —
// leaves the new call alone, whether it is still running or done.
func TestMemoForgetLeavesReclaimedCall(t *testing.T) {
	var m Memo[int]
	if _, err := m.Do("k", func() (int, error) { return 0, errors.New("boom") }); err == nil {
		t.Fatal("failing compute returned no error")
	}
	m.Forget("k")

	running, release := make(chan struct{}), make(chan struct{})
	done := make(chan int)
	go func() {
		v, _ := m.Do("k", func() (int, error) {
			close(running)
			<-release
			return 7, nil
		})
		done <- v
	}()
	<-running
	m.Forget("k") // the late Forget, while the new call runs
	close(release)
	if v := <-done; v != 7 {
		t.Fatalf("re-claimed call = %d, want 7", v)
	}
	m.Forget("k") // and once it is done
	var runs atomic.Int64
	v, err := m.Do("k", func() (int, error) { runs.Add(1); return 9, nil })
	if err != nil || v != 7 || runs.Load() != 0 {
		t.Fatalf("after late Forgets: (%d, %v) with %d recomputes, want (7, nil) with 0", v, err, runs.Load())
	}
}
