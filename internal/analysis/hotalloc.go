package analysis

import (
	"go/ast"
	"go/types"
	"strings"

	"diffusionlb/internal/analysis/driver"
)

// HotAlloc enforces the 0 allocs/round contract on functions annotated
// //lbvet:hotpath — the fused Step kernels, Reweight, Retarget and the
// rounders. TestStepSteadyStateAllocFree pins the property at runtime for
// one engine configuration; this analyzer pins the cause for every
// annotated function, flagging each construct that allocates (or forces a
// heap escape) on the hot path:
//
//   - append (may grow the backing array) and make/new;
//   - function literals (closure allocation);
//   - fmt calls (interface formatting allocates);
//   - slice, map and address-taken composite literals;
//   - map iteration (hash-order dependent and cache-hostile);
//   - implicit conversion of non-pointer-shaped values to interface types
//     (boxing).
//
// Error paths are exempt: an allocation in a block from which every path
// terminates in a failure return (a result built by fmt.Errorf/errors.New,
// an err guarded by err != nil, or a panic) runs at most once per
// misconfiguration, not once per round. The exemption is computed on the
// function's CFG, so validation prologues keep their informative errors.
var HotAlloc = &driver.Analyzer{
	Name: "hotalloc",
	Doc: "//lbvet:hotpath functions must be allocation-free: no append/make, " +
		"closures, fmt, map iteration, escaping literals or interface boxing " +
		"outside error-terminating paths",
	Run: runHotAlloc,
}

func runHotAlloc(pass *driver.Pass) error {
	for _, f := range pass.Files {
		if pass.IsTestFile(f.Pos()) {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !driver.HasDirective(fd.Doc, "hotpath") {
				continue
			}
			checkHotFunc(pass, fd)
		}
	}
	return nil
}

func checkHotFunc(pass *driver.Pass, fd *ast.FuncDecl) {
	cfg := pass.FuncCFG(fd)
	cold := coldBlocks(pass, cfg)
	for _, blk := range cfg.Blocks {
		if cold[blk.Index] {
			continue
		}
		for _, node := range blk.Nodes {
			checkHotNode(pass, fd, node)
		}
	}
}

// coldBlocks marks blocks from which every path terminates in a failure
// exit (error return or panic): allocations there are per-misconfiguration,
// not per-round. A block is hot when it can reach a normal exit.
func coldBlocks(pass *driver.Pass, cfg *driver.CFG) []bool {
	normal := make([]bool, len(cfg.Blocks))
	for _, blk := range cfg.Blocks {
		if blk.FallsToExit {
			normal[blk.Index] = true
		}
		for _, ret := range blk.Returns {
			if !isFailureReturn(pass, cfg, ret) {
				normal[blk.Index] = true
			}
		}
	}
	// Backward propagation: a block reaching a normal-exit block is hot.
	hot := make([]bool, len(cfg.Blocks))
	preds := make([][]*driver.Block, len(cfg.Blocks))
	var work []*driver.Block
	for _, blk := range cfg.Blocks {
		for _, s := range blk.Succs {
			preds[s.Index] = append(preds[s.Index], blk)
		}
		if normal[blk.Index] {
			hot[blk.Index] = true
			work = append(work, blk)
		}
	}
	for len(work) > 0 {
		blk := work[len(work)-1]
		work = work[:len(work)-1]
		for _, p := range preds[blk.Index] {
			if !hot[p.Index] {
				hot[p.Index] = true
				work = append(work, p)
			}
		}
	}
	cold := make([]bool, len(cfg.Blocks))
	for i := range cold {
		cold[i] = !hot[i]
	}
	return cold
}

// isFailureReturn classifies a return as an error exit: a result that
// constructs an error (fmt.Errorf, errors.New, a function named Err*), or a
// bare error identifier returned under its own err != nil guard.
func isFailureReturn(pass *driver.Pass, cfg *driver.CFG, ret *ast.ReturnStmt) bool {
	for _, res := range ret.Results {
		if isErrorConstruction(pass, res) {
			return true
		}
		if id, ok := res.(*ast.Ident); ok && isErrorTypedExpr(pass, id) && guardedNonNil(pass, cfg.Fn, ret, id) {
			return true
		}
	}
	return false
}

func isErrorConstruction(pass *driver.Pass, e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	fn := calleeOf(pass, call)
	if fn == nil {
		return false
	}
	if pkg := fn.Pkg(); pkg != nil && (pkg.Path() == "errors" || pkg.Path() == "fmt" && fn.Name() == "Errorf") {
		return true
	}
	return strings.HasPrefix(fn.Name(), "Err")
}

func isErrorTypedExpr(pass *driver.Pass, e ast.Expr) bool {
	t := pass.TypesInfo.TypeOf(e)
	if t == nil {
		return false
	}
	return t.String() == "error"
}

// guardedNonNil reports whether ret sits inside an if whose condition
// compares id's variable against nil with != — the canonical
// `if err != nil { return err }` shape.
func guardedNonNil(pass *driver.Pass, fn ast.Node, ret *ast.ReturnStmt, id *ast.Ident) bool {
	v, ok := pass.TypesInfo.Uses[id].(*types.Var)
	if !ok {
		return false
	}
	found := false
	ast.Inspect(fn, func(n ast.Node) bool {
		ifs, ok := n.(*ast.IfStmt)
		if !ok || found {
			return !found
		}
		cond, ok := ifs.Cond.(*ast.BinaryExpr)
		if !ok {
			return true
		}
		condID, okX := cond.X.(*ast.Ident)
		if !okX || pass.TypesInfo.Uses[condID] != types.Object(v) {
			return true
		}
		if nilID, okY := cond.Y.(*ast.Ident); !okY || nilID.Name != "nil" {
			return true
		}
		if ret.Pos() >= ifs.Body.Pos() && ret.End() <= ifs.Body.End() {
			found = true
		}
		return true
	})
	return found
}

// checkHotNode flags the allocating constructs inside one CFG node,
// without descending into nested function literals (flagged as a whole).
func checkHotNode(pass *driver.Pass, fd *ast.FuncDecl, node ast.Node) {
	// A RangeStmt appears in the CFG as a loop-head node standing for the
	// per-iteration assignment and range-expression evaluation; its body is
	// its own set of blocks, so only X is inspected here.
	if rs, ok := node.(*ast.RangeStmt); ok {
		if t := pass.TypesInfo.TypeOf(rs.X); t != nil {
			if _, isMap := t.Underlying().(*types.Map); isMap {
				pass.Reportf(rs.Pos(),
					"map iteration in //lbvet:hotpath %s is hash-order dependent and cache-hostile; keep hot state in indexed slices", fd.Name.Name)
			}
		}
		node = rs.X
	}
	flaggedFmt := map[*ast.CallExpr]bool{}
	ast.Inspect(node, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			pass.Reportf(n.Pos(),
				"closure literal in //lbvet:hotpath %s allocates per call; hoist it to a method value bound at construction", fd.Name.Name)
			return false
		case *ast.CompositeLit:
			checkCompositeLit(pass, fd, n)
		case *ast.CallExpr:
			checkHotCall(pass, fd, n, flaggedFmt)
		case *ast.AssignStmt:
			for i, rhs := range n.Rhs {
				if i < len(n.Lhs) {
					checkBoxing(pass, fd, rhs, pass.TypesInfo.TypeOf(n.Lhs[i]))
				}
			}
		case *ast.ReturnStmt:
			sig, ok := fnSignature(pass, fd)
			if !ok || sig.Results().Len() != len(n.Results) {
				return true
			}
			for i, res := range n.Results {
				checkBoxing(pass, fd, res, sig.Results().At(i).Type())
			}
		}
		return true
	})
}

func fnSignature(pass *driver.Pass, fd *ast.FuncDecl) (*types.Signature, bool) {
	obj, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
	if !ok {
		return nil, false
	}
	sig, ok := obj.Type().(*types.Signature)
	return sig, ok
}

func checkCompositeLit(pass *driver.Pass, fd *ast.FuncDecl, lit *ast.CompositeLit) {
	t := pass.TypesInfo.TypeOf(lit)
	if t == nil {
		return
	}
	switch t.Underlying().(type) {
	case *types.Slice, *types.Map:
		pass.Reportf(lit.Pos(),
			"%s literal in //lbvet:hotpath %s allocates; preallocate at construction", kindName(t), fd.Name.Name)
	}
}

func kindName(t types.Type) string {
	switch t.Underlying().(type) {
	case *types.Slice:
		return "slice"
	case *types.Map:
		return "map"
	}
	return "composite"
}

func checkHotCall(pass *driver.Pass, fd *ast.FuncDecl, call *ast.CallExpr, flaggedFmt map[*ast.CallExpr]bool) {
	if id, ok := call.Fun.(*ast.Ident); ok {
		if obj := pass.TypesInfo.Uses[id]; obj != nil && obj.Parent() == types.Universe {
			switch id.Name {
			case "append":
				pass.Reportf(call.Pos(),
					"append in //lbvet:hotpath %s may grow the backing array (allocates); size the buffer at construction and index it", fd.Name.Name)
			case "make", "new":
				pass.Reportf(call.Pos(),
					"%s in //lbvet:hotpath %s allocates per call; allocate at construction and reuse", id.Name, fd.Name.Name)
			}
			return
		}
	}
	fn := calleeOf(pass, call)
	if fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "fmt" {
		flaggedFmt[call] = true
		pass.Reportf(call.Pos(),
			"fmt.%s in //lbvet:hotpath %s formats through interfaces (allocates); hot paths must not format", fn.Name(), fd.Name.Name)
		return
	}
	// Interface boxing at call arguments.
	sig, ok := pass.TypesInfo.TypeOf(call.Fun).(*types.Signature)
	if !ok || flaggedFmt[call] {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if s, ok := params.At(params.Len() - 1).Type().(*types.Slice); ok {
				pt = s.Elem()
			}
		case i < params.Len():
			pt = params.At(i).Type()
		}
		checkBoxing(pass, fd, arg, pt)
	}
}

// checkBoxing flags an implicit conversion of a non-pointer-shaped value to
// an interface type: the runtime must heap-box the value to form the
// interface word.
func checkBoxing(pass *driver.Pass, fd *ast.FuncDecl, e ast.Expr, target types.Type) {
	if target == nil {
		return
	}
	if _, ok := target.Underlying().(*types.Interface); !ok {
		return
	}
	at := pass.TypesInfo.TypeOf(e)
	if at == nil || at == types.Typ[types.UntypedNil] {
		return
	}
	if _, isIface := at.Underlying().(*types.Interface); isIface {
		return
	}
	switch at.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Signature, *types.Map:
		// Pointer-shaped: the interface data word holds the value directly.
		return
	}
	pass.Reportf(e.Pos(),
		"%s value boxed into interface %s in //lbvet:hotpath %s (allocates); keep hot calls monomorphic",
		at.String(), target.String(), fd.Name.Name)
}

// calleeOf resolves a call to its static *types.Func (nil for indirect or
// builtin calls). Shared with nodeterminism's calleeFunc but kept local so
// each analyzer file reads standalone.
func calleeOf(pass *driver.Pass, call *ast.CallExpr) *types.Func {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		f, _ := pass.TypesInfo.Uses[fun].(*types.Func)
		return f
	case *ast.SelectorExpr:
		f, _ := pass.TypesInfo.Uses[fun.Sel].(*types.Func)
		return f
	}
	return nil
}
