package analysis

import (
	"go/ast"

	"diffusionlb/internal/analysis/driver"
)

// GoroutineLeak requires every go statement in engine code to either live
// inside the blessed fan-out primitive — shard.Run, whose WaitGroup joins
// every goroutine before returning, and through which the engines' shard
// passes, the actor runtime's actors and the sweep's cells all fan out — or
// run inside a function that carries a context.Context parameter, making
// cancellation explicit.
//
// A bare goroutine in engine code has no join and no cancellation path: it
// outlives the round that spawned it, keeps writing into buffers the next
// round reuses, and turns a deterministic lockstep simulation into a racy
// one.
var GoroutineLeak = &driver.Analyzer{
	Name: "goroutineleak",
	Doc: "go statements in engine code must flow through shard.Run " +
		"or run in a function carrying a context.Context parameter",
	Run: runGoroutineLeak,
}

// blessedFanOutPackages are the packages whose package-level Run is an
// allowed fan-out primitive: the shard package's Run, which joins every
// goroutine it starts before returning. A Run anywhere else, or a method
// named Run, is an ordinary function — naming a helper Run does not buy a
// spawn license.
var blessedFanOutPackages = []string{
	"diffusionlb/internal/shard",
}

// blessedFanOut reports whether fd is the allowed fan-out primitive: the
// package-level Run of a blessed package.
func blessedFanOut(pass *driver.Pass, fd *ast.FuncDecl) bool {
	if fd.Name.Name != "Run" || fd.Recv != nil {
		return false
	}
	path := pass.Pkg.Path()
	for _, p := range blessedFanOutPackages {
		if path == p {
			return true
		}
	}
	return false
}

func runGoroutineLeak(pass *driver.Pass) error {
	for _, f := range pass.Files {
		if pass.IsTestFile(f.Pos()) {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkGoStmts(pass, fd, fd.Body, blessedFanOut(pass, fd) || hasContextParam(pass, fd.Type))
		}
	}
	return nil
}

// checkGoStmts walks body flagging go statements, tracking whether any
// enclosing function (declaration or literal) satisfies the contract.
func checkGoStmts(pass *driver.Pass, fd *ast.FuncDecl, node ast.Node, allowed bool) {
	ast.Inspect(node, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			// Recurse with the literal's own parameters considered too; a
			// closure taking ctx may legitimately spawn.
			checkGoStmts(pass, fd, n.Body, allowed || hasContextParam(pass, n.Type))
			return false
		case *ast.GoStmt:
			if !allowed {
				pass.Reportf(n.Pos(),
					"go statement in %s has no join or cancellation path; route fan-out through shard.Run or thread a context.Context parameter",
					fd.Name.Name)
			}
		}
		return true
	})
}

// hasContextParam reports whether the function type declares a
// context.Context parameter.
func hasContextParam(pass *driver.Pass, ft *ast.FuncType) bool {
	if ft.Params == nil {
		return false
	}
	for _, field := range ft.Params.List {
		t := pass.TypesInfo.TypeOf(field.Type)
		if t != nil && t.String() == "context.Context" {
			return true
		}
	}
	return false
}
