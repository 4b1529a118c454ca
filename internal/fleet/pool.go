package fleet

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// ForEach runs fn(i) for every i in [0, n) over a bounded pool of worker
// goroutines — the fan-out primitive behind fleet simulation and the torture
// campaigns in internal/torture. workers <= 0 means GOMAXPROCS. Each worker
// claims the next index from a shared counter, one at a time, so a claim
// wakes no other goroutine.
//
// Claiming stops at the first fn error or context cancellation; in-flight
// calls finish. ForEach returns ctx's error if the context was cancelled,
// otherwise the first error fn returned. Callers that write fn results into
// a pre-sized slice at index i get deterministic output regardless of worker
// count or scheduling — the property both subsystems' reports rely on.
func ForEach(ctx context.Context, n, workers int, fn func(i int) error) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	var (
		next     atomic.Int64
		failed   atomic.Bool
		wg       sync.WaitGroup
		errOnce  sync.Once
		firstErr error
	)
	stopped := func() bool {
		select {
		case <-ctx.Done():
			return true
		default:
			return failed.Load()
		}
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stopped() {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				if err := fn(i); err != nil {
					errOnce.Do(func() { firstErr = err })
					failed.Store(true)
					return
				}
			}
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return err
	}
	return firstErr
}
