// Package goroutineleak is an lbvet analysistest fixture for the
// goroutineleak analyzer: bare go statements are flagged, context-carrying
// functions are not. The one blessed fan-out, shard.Run, lives outside this
// package, so a joined fan-out here is still flagged.
package goroutineleak

import (
	"context"
	"sync"
)

func bare() {
	go func() {}() // want `go statement in bare`
}

func bareInClosure() {
	run := func() {
		go helper() // want `go statement in bareInClosure`
	}
	run()
}

func helper() {}

// withCtx is allowed: cancellation is explicit in the signature.
func withCtx(ctx context.Context) {
	go func() { <-ctx.Done() }()
}

// ctxClosure is allowed: the literal itself carries the context.
func ctxClosure() func(context.Context) {
	return func(ctx context.Context) {
		go func() { <-ctx.Done() }()
	}
}

// parallelFor joins every goroutine before it returns, but it is not
// shard.Run: the fan-out has one home, so a second joined primitive is
// flagged like any other spawn.
func parallelFor(n int, body func(i int)) {
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) { // want `go statement in parallelFor`
			defer wg.Done()
			body(i)
		}(i)
	}
	wg.Wait()
}

// allowEscape pins the //lint:allow escape hatch.
func allowEscape() {
	//lint:allow goroutineleak fixture exercises the escape hatch
	go helper()
}

// Run is NOT blessed here: the Run blessing is scoped to the shard
// package, so naming a helper Run in any other package does not buy a
// spawn license.
func Run(body func()) {
	go body() // want `go statement in Run`
}
