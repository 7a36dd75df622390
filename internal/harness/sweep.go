package harness

import (
	"runtime"
	"sync"

	"allforone/internal/protocol"
)

// Sweep executes every scenario on a bounded worker pool and returns the
// outcomes in input order — the bulk entry point of the Scenario API.
// Each run is a single-threaded deterministic simulation, so runs are
// embarrassingly parallel: a sweep of thousands of seeded scenarios
// saturates all cores without perturbing any individual Outcome.
// parallelism ≤ 0 means one worker per available CPU.
//
// The first error (invalid scenario or invariant violation) aborts the
// sweep and is returned; in-flight runs finish, queued ones are skipped.
func Sweep(scs []protocol.Scenario, parallelism int) ([]*protocol.Outcome, error) {
	outs := make([]*protocol.Outcome, len(scs))
	err := forEachParallel(parallelism, len(scs), func(i int) error {
		out, err := protocol.Run(scs[i])
		if err != nil {
			return err
		}
		outs[i] = out
		return nil
	})
	if err != nil {
		return nil, err
	}
	return outs, nil
}

// SweepCollect executes every scenario on the same worker pool as Sweep
// but never aborts: each scenario's outcome or error lands at its input
// index, and both slices are returned in full. This is the entry point of
// the adversarial schedule search (internal/adversary), where a failing
// probe — e.g. a run whose safety check detected a genuine violation — is
// the FINDING, not a reason to stop probing.
func SweepCollect(scs []protocol.Scenario, parallelism int) ([]*protocol.Outcome, []error) {
	outs := make([]*protocol.Outcome, len(scs))
	errs := make([]error, len(scs))
	// fn never returns an error, so forEachParallel never short-circuits.
	_ = forEachParallel(parallelism, len(scs), func(i int) error {
		outs[i], errs[i] = protocol.Run(scs[i])
		return nil
	})
	return outs, errs
}

// forEachParallel runs fn(0) … fn(n-1) across a pool of workers and returns
// the first error. workers ≤ 0 means runtime.NumCPU(). With one worker (or
// n ≤ 1) it degenerates to a plain sequential loop.
func forEachParallel(workers, n int, fn func(i int) error) error {
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}

	var (
		mu       sync.Mutex
		firstErr error
		next     int
	)
	claim := func() (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		if firstErr != nil || next >= n {
			return 0, false
		}
		i := next
		next++
		return i, true
	}
	fail := func(err error) {
		mu.Lock()
		defer mu.Unlock()
		if firstErr == nil {
			firstErr = err
		}
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i, ok := claim()
				if !ok {
					return
				}
				if err := fn(i); err != nil {
					fail(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	return firstErr
}
