// Package sweep is the deterministic parallel grid runner behind the
// root package's Sweep facade. The paper's whole evaluation is
// sweep-shaped — Figure 4 alone is an (application × budget ×
// strategy) grid of full pipeline runs — and two structural facts make
// those grids embarrassingly parallel AND heavily redundant:
//
//  1. Every simulated run is a pure function of its configuration
//     (explicit seeds, no global state), so grid cells can execute on
//     any goroutine in any order without changing a single byte of any
//     result.
//  2. The expensive Profile/Analyze prefix of a pipeline cell depends
//     only on (workload, machine, cores, seed, sample period, min
//     alloc size, ref scale) — not on the budget or strategy being
//     swept — so an entire budget×strategy plane shares one profiling
//     artifact.
//
// Grid encodes exactly those two facts: cells fan out across a bounded
// worker pool, per-key setup artifacts are computed once and shared
// through a Memo, and results return indexed by cell so ordering
// is scheduling-independent. Everything domain-specific (what a
// profile is, what a cell computes) stays with the caller.
package sweep

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"

	"repro/internal/runerr"
)

// Key identifies a shareable setup artifact. Cells with equal keys
// share one setup computation; a unique key gives a cell private
// setup. The empty key means "no setup": setup is skipped entirely and
// the cell runs with the zero artifact.
type Key string

// Memo computes one value per key, once, and hands it to every caller
// of that key. Concurrent callers of one key block until the first
// caller's compute returns, then share its value or its error
// verbatim; a panicking compute is recovered as a CellPanic with Cell
// -1 (which caller claimed the key is scheduling-dependent) and fails
// every caller of the key. Grid memoizes its per-key setup artifacts
// through one, and the root package's sweep shares identical
// executions through another. The zero Memo is ready to use.
type Memo[V any] struct {
	mu    sync.Mutex
	calls map[Key]*memoCall[V]
}

type memoCall[V any] struct {
	once sync.Once
	val  V
	err  error
}

// Do returns the value computed for k, running compute only if no
// caller has claimed k before.
func (m *Memo[V]) Do(k Key, compute func() (V, error)) (V, error) {
	m.mu.Lock()
	c, ok := m.calls[k]
	if !ok {
		if m.calls == nil {
			m.calls = make(map[Key]*memoCall[V])
		}
		c = new(memoCall[V])
		m.calls[k] = c
	}
	m.mu.Unlock()
	c.once.Do(func() {
		defer func() {
			if v := recover(); v != nil {
				c.err = &CellPanic{Cell: -1, Value: v, Stack: debug.Stack()}
			}
		}()
		c.val, c.err = compute()
	})
	return c.val, c.err
}

// ErrCellPanic is the sentinel every recovered cell or setup panic
// wraps: errors.Is(err, ErrCellPanic) tells a recovered crash apart
// from an ordinary cell error.
var ErrCellPanic = errors.New("sweep: cell panicked")

// CellPanic is the error a recovered panic is captured as: the
// panicking cell, the panic value and the stack at the point of
// recovery. Cell is -1 for a panic in a Memo's shared computation —
// which cell happened to claim the key is scheduling-dependent, and
// the error is shared verbatim by every cell on that key, so recording
// the claimer would break the grid's determinism contract.
type CellPanic struct {
	Cell  int
	Value any
	Stack []byte
}

func (p *CellPanic) Error() string {
	where := fmt.Sprintf("cell %d", p.Cell)
	if p.Cell < 0 {
		where = "shared computation"
	}
	return fmt.Sprintf("%v in %s: %v\n%s", ErrCellPanic, where, p.Value, p.Stack)
}

// Unwrap makes the sentinel reachable through errors.Is.
func (p *CellPanic) Unwrap() error { return ErrCellPanic }

// Join aggregates per-cell errors into one error with errors.Join,
// preserving cell-index order so the lowest failed cell stays the
// primary (first-rendered, first-matched) error — the deterministic
// contract Grid's callers rely on. Nil when no cell failed.
func Join(errs []error) error {
	var nonNil []error
	for _, err := range errs {
		if err != nil {
			nonNil = append(nonNil, err)
		}
	}
	return errors.Join(nonNil...)
}

// Grid runs cells 0..n-1 across a bounded pool of workers goroutines
// (workers <= 0 means GOMAXPROCS) and returns their results indexed by
// cell.
//
// For each cell, keyOf names the setup artifact it needs; the first
// cell to claim a key computes setup once and every other cell with
// that key blocks on (and then shares) the same artifact. point then
// computes the cell's result from the artifact; it also receives the
// index of the pool worker executing the cell (0 on the serial path) —
// observability data for the flight recorder's cell events, and
// scheduling-dependent, so a pure point must not let it influence the
// result. Both callbacks must be pure with respect to the cell index —
// given that, the returned slice is bit-identical to the serial loop
//
//	for i := range n { results[i] = point(i, 0, setup(i)) }
//
// regardless of worker count or scheduling, which is what lets the
// facade's determinism tests compare a parallel sweep against the
// serial reference directly.
//
// A setup or point error — or a recovered panic, captured as a
// CellPanic — fails its cell; Grid still runs the remaining cells and
// returns the per-cell errors aggregated with Join, so the error of
// the LOWEST failed cell index stays primary (again
// scheduling-independent) alongside the partial results.
func Grid[A, R any](n, workers int, keyOf func(int) Key, setup func(int) (A, error), point func(i, worker int, a A) (R, error)) ([]R, error) {
	results, errs := GridCtx(context.Background(), n, workers, keyOf, setup, point)
	return results, Join(errs)
}

// GridCtx is Grid under a context, returning the raw per-cell error
// slice instead of an aggregate — the facade needs both: per-cell
// errors to hand callers the 47 good cells of a 48-cell sweep, and
// the context to stop a long grid promptly. Once ctx is done, cells
// not yet started fail with runerr.ErrCanceled instead of running
// (cells already in flight finish normally), so a canceled sweep
// returns within roughly one cell's latency with every completed
// result intact.
func GridCtx[A, R any](ctx context.Context, n, workers int, keyOf func(int) Key, setup func(int) (A, error), point func(i, worker int, a A) (R, error)) ([]R, []error) {
	results := make([]R, n)
	errs := make([]error, n)
	if n == 0 {
		return results, errs
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}

	var setups Memo[A]
	run := func(i, worker int) {
		if ctx != nil {
			if err := runerr.Canceled(ctx); err != nil {
				errs[i] = fmt.Errorf("sweep: cell %d not started: %w", i, err)
				return
			}
		}
		var artifact A
		if k := keyOf(i); k != "" {
			a, err := setups.Do(k, func() (A, error) { return setup(i) })
			if err != nil {
				errs[i] = err
				return
			}
			artifact = a
		}
		func() {
			defer func() {
				if v := recover(); v != nil {
					errs[i] = &CellPanic{Cell: i, Value: v, Stack: debug.Stack()}
				}
			}()
			r, err := point(i, worker, artifact)
			if err != nil {
				errs[i] = err
				return
			}
			results[i] = r
		}()
	}

	if workers == 1 {
		for i := 0; i < n; i++ {
			run(i, 0)
		}
	} else {
		idx := make(chan int)
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func(worker int) {
				defer wg.Done()
				for i := range idx {
					run(i, worker)
				}
			}(w)
		}
		for i := 0; i < n; i++ {
			idx <- i
		}
		close(idx)
		wg.Wait()
	}

	return results, errs
}
