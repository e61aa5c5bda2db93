// Package sweep is the deterministic fan-out engine behind the experiment
// layer: it expands a sweep specification (graphs, schemes, rounders, speed
// profiles, β values, seed ranges) into independent simulation cells,
// executes them on a bounded, context-cancellable worker pool, and
// aggregates replicate series into mean/stddev/min/max statistics.
//
// Determinism contract: every cell derives its seed from the master seed
// and its position in the expanded grid via randx.Mix, cells never share
// mutable state, and results are collected by cell index. Aggregated output
// is therefore bitwise identical for every worker count, including 1.
package sweep

import (
	"context"
	"runtime"
	"sync"

	"diffusionlb/internal/shard"
)

// Workers resolves a requested worker count: values <= 0 mean "one worker
// per available CPU", and explicit values are capped at runtime.GOMAXPROCS
// so a sweep never oversubscribes the scheduler.
func Workers(requested int) int {
	max := runtime.GOMAXPROCS(0)
	if requested <= 0 || requested > max {
		return max
	}
	return requested
}

// Map runs fn(ctx, i) for every i in [0, n) on at most Workers(workers)
// goroutines through shard.Run and blocks until all started jobs finish.
// Callers communicate results positionally (fn writes results[i]), which
// keeps output independent of scheduling order.
//
// Indices are handed out in increasing order, and no index starts once ctx
// is done or a lower index has failed: jobs already running finish, the
// rest are skipped. Map returns ctx.Err() if ctx is done, else the error of
// the lowest failing index — deterministic, because every index below a
// failing one was handed out before it and still runs.
func Map(ctx context.Context, workers, n int, fn func(ctx context.Context, i int) error) error {
	var mu sync.Mutex
	first, firstErr := n, error(nil) // lowest failing index so far, and its error
	shard.Run(Workers(workers), n, ctx, func(ctx context.Context, i int) {
		mu.Lock()
		stop := i > first
		mu.Unlock()
		if stop || ctx.Err() != nil {
			return
		}
		if err := fn(ctx, i); err != nil {
			mu.Lock()
			if i < first {
				first, firstErr = i, err
			}
			mu.Unlock()
		}
	})
	if err := ctx.Err(); err != nil {
		return err
	}
	return firstErr
}
