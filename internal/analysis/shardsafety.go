package analysis

import (
	"go/ast"
	"go/token"
	"go/types"

	"diffusionlb/internal/analysis/driver"
)

// ShardSafety proves that the parallel engine kernels never write across
// shard boundaries. A pass body — any function or literal with the Layout.Run
// signature (s, lo, hi int) — runs concurrently with every other shard, so a
// write to a shared slice is only safe when the index is provably inside the
// shard's own range. The analyzer accepts exactly the ownership shapes the
// engines use:
//
//   - node-range indices: the variable of a `for i := lo; i < hi; i++` loop;
//   - arc-range indices: the variable of a `for a := P[i]; a < P[i+1]; a++`
//     loop whose bound expressions share the same base and whose row index i
//     is itself node-range;
//   - the shard slot s (per-shard reduction slots like minT[s]);
//   - per-shard scratch reached through an s-indexed chain (sh[s].vals);
//   - function-local slices (freshly made in the body);
//   - indices read back from a scratch slice whose stores were all in-range
//     (the arcIdx replay pattern of the fused round kernel);
//   - fields annotated //lbvet:doublebuffer, whose unique ownership comes
//     from the buffer protocol (exact IEEE antisymmetry pairs both arc
//     directions), not from an index range.
//
// Everything else — a constant index, an index loaded from shared state, a
// captured scalar, an unbounded copy into a shared slice — is a cross-shard
// race waiting for a work-stealing reschedule, and is reported. The analyzer
// also flags loop variables captured by goroutine literals anywhere in
// engine code: the spawn must take iteration state as arguments so the
// handoff is explicit.
var ShardSafety = &driver.Analyzer{
	Name: "shardsafety",
	Doc: "writes to shared slices inside (s, lo, hi int) pass bodies must be " +
		"provably shard-local (node/arc range, [s] slot, scratch, or //lbvet:doublebuffer)",
	Run: runShardSafety,
}

func runShardSafety(pass *driver.Pass) error {
	dblBuf := driver.FieldsWithDirective(pass.TypesInfo, pass.Files, "doublebuffer")
	for _, f := range pass.Files {
		if pass.IsTestFile(f.Pos()) {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkLoopVarEscape(pass, fd.Body)
			if isPassBodyType(pass, fd.Type) {
				newPassBodyCheck(pass, fd, fd.Type, dblBuf).check()
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if fl, ok := n.(*ast.FuncLit); ok && isPassBodyType(pass, fl.Type) {
					newPassBodyCheck(pass, fl, fl.Type, dblBuf).check()
				}
				return true
			})
		}
	}
	return nil
}

// isPassBodyType reports whether ft is the Layout.Run pass-body shape:
// exactly three int parameters whose last two are named lo and hi.
func isPassBodyType(pass *driver.Pass, ft *ast.FuncType) bool {
	if ft.Params == nil {
		return false
	}
	var names []*ast.Ident
	for _, field := range ft.Params.List {
		t := pass.TypesInfo.TypeOf(field.Type)
		b, ok := t.(*types.Basic)
		if !ok || b.Kind() != types.Int {
			return false
		}
		names = append(names, field.Names...)
	}
	return len(names) == 3 && names[1].Name == "lo" && names[2].Name == "hi"
}

// provKind classifies how an index is known to be shard-local.
type provKind int

const (
	provNode provKind = iota // node-range loop variable (or lo itself)
	provArc                  // arc-range loop variable
)

// blessing records one blessed loop variable: its kind and the only
// definition sites (init and post) a use may see to stay provably in-range.
type blessing struct {
	kind  provKind
	sites map[ast.Node]bool
}

// sliceClass classifies the base of an indexed write.
type sliceClass int

const (
	classShared    sliceClass = iota // shared across shards: index must be proven
	classLocal                       // function-local allocation
	classScratch                     // per-shard scratch behind an [s] chain
	classDoubleBuf                   // //lbvet:doublebuffer unique-ownership field
)

type passBodyCheck struct {
	pass   *driver.Pass
	fn     ast.Node
	body   *ast.BlockStmt
	reach  *driver.ReachingDefs
	dblBuf map[*types.Var]bool

	sObj, loObj, hiObj *types.Var
	blessed            map[*types.Var]*blessing
	// storedOK marks local/scratch slices all of whose element stores were
	// provably in-range indices, so reading an index back out of them keeps
	// the proof (the arcIdx replay pattern).
	storedOK map[*types.Var]bool
}

func newPassBodyCheck(pass *driver.Pass, fn ast.Node, ft *ast.FuncType, dblBuf map[*types.Var]bool) *passBodyCheck {
	c := &passBodyCheck{
		pass:     pass,
		fn:       fn,
		reach:    pass.FuncReach(fn),
		dblBuf:   dblBuf,
		blessed:  map[*types.Var]*blessing{},
		storedOK: map[*types.Var]bool{},
	}
	switch fn := fn.(type) {
	case *ast.FuncDecl:
		c.body = fn.Body
	case *ast.FuncLit:
		c.body = fn.Body
	}
	var names []*ast.Ident
	for _, field := range ft.Params.List {
		names = append(names, field.Names...)
	}
	obj := func(id *ast.Ident) *types.Var {
		v, _ := pass.TypesInfo.Defs[id].(*types.Var)
		return v
	}
	c.sObj, c.loObj, c.hiObj = obj(names[0]), obj(names[1]), obj(names[2])
	return c
}

func (c *passBodyCheck) check() {
	c.collectBlessings()
	c.collectStoredOK()
	c.inspectOwn(func(n ast.Node) {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				c.checkWrite(lhs)
			}
		case *ast.IncDecStmt:
			c.checkWrite(n.X)
		case *ast.CallExpr:
			c.checkCopy(n)
		}
	})
}

// inspectOwn walks the pass body skipping nested function literals (they are
// separate functions with their own CFG; a nested pass body is checked on
// its own).
func (c *passBodyCheck) inspectOwn(f func(ast.Node)) {
	ast.Inspect(c.body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if n != nil {
			f(n)
		}
		return true
	})
}

// collectBlessings finds the canonical shard-range loops.
func (c *passBodyCheck) collectBlessings() {
	c.inspectOwn(func(n ast.Node) {
		f, ok := n.(*ast.ForStmt)
		if !ok {
			return
		}
		init, ok := f.Init.(*ast.AssignStmt)
		if !ok || init.Tok != token.DEFINE || len(init.Lhs) != 1 || len(init.Rhs) != 1 {
			return
		}
		loopID, ok := init.Lhs[0].(*ast.Ident)
		if !ok {
			return
		}
		loopVar, ok := c.pass.TypesInfo.Defs[loopID].(*types.Var)
		if !ok {
			return
		}
		cond, ok := f.Cond.(*ast.BinaryExpr)
		if !ok || cond.Op != token.LSS {
			return
		}
		condX, ok := cond.X.(*ast.Ident)
		if !ok || c.useOf(condX) != loopVar {
			return
		}
		post, ok := f.Post.(*ast.IncDecStmt)
		if !ok || post.Tok != token.INC {
			return
		}
		postX, ok := post.X.(*ast.Ident)
		if !ok || c.useOf(postX) != loopVar {
			return
		}
		sites := map[ast.Node]bool{init: true, post: true}

		// Form A: for i := lo; i < hi; i++ — node range.
		if lo, ok := init.Rhs[0].(*ast.Ident); ok && c.useOf(lo) == c.loObj {
			if hi, ok := cond.Y.(*ast.Ident); ok && c.useOf(hi) == c.hiObj {
				c.blessed[loopVar] = &blessing{kind: provNode, sites: sites}
				return
			}
		}
		// Form B: for a := P[i]; a < P[i+1]; a++ — arc range of row i.
		lowIdx, ok := init.Rhs[0].(*ast.IndexExpr)
		if !ok {
			return
		}
		highIdx, ok := cond.Y.(*ast.IndexExpr)
		if !ok || types.ExprString(lowIdx.X) != types.ExprString(highIdx.X) {
			return
		}
		rowID, ok := lowIdx.Index.(*ast.Ident)
		if !ok || !c.nodeRangeUse(rowID) {
			return
		}
		plus, ok := highIdx.Index.(*ast.BinaryExpr)
		if !ok || plus.Op != token.ADD {
			return
		}
		rowID2, ok := plus.X.(*ast.Ident)
		if !ok || c.useOf(rowID2) != c.useOf(rowID) {
			return
		}
		if lit, ok := plus.Y.(*ast.BasicLit); !ok || lit.Value != "1" {
			return
		}
		c.blessed[loopVar] = &blessing{kind: provArc, sites: sites}
	})
}

func (c *passBodyCheck) useOf(id *ast.Ident) *types.Var {
	v, _ := c.pass.TypesInfo.Uses[id].(*types.Var)
	return v
}

// nodeRangeUse reports whether this identifier use is provably a node-range
// index: lo itself, or a node-blessed loop variable whose reaching defs are
// exactly the blessed loop's init/post.
func (c *passBodyCheck) nodeRangeUse(id *ast.Ident) bool {
	v := c.useOf(id)
	if v == nil {
		return false
	}
	if v == c.loObj {
		return true
	}
	bl := c.blessed[v]
	if bl == nil || bl.kind != provNode {
		return false
	}
	return c.defsWithin(id, bl.sites)
}

// defsWithin reports whether every reaching definition of the use lies in
// sites (and there is at least one).
func (c *passBodyCheck) defsWithin(id *ast.Ident, sites map[ast.Node]bool) bool {
	defs := c.reach.DefsOf(id)
	if len(defs) == 0 {
		return false
	}
	for _, d := range defs {
		if !sites[d.Site] {
			return false
		}
	}
	return true
}

// collectStoredOK computes the index-store taint of local/scratch slices:
// a slice qualifies when every element store into it writes a provably
// in-range index value.
func (c *passBodyCheck) collectStoredOK() {
	stores := map[*types.Var][]ast.Expr{}
	disqualified := map[*types.Var]bool{}
	c.inspectOwn(func(n ast.Node) {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return
		}
		for i, lhs := range as.Lhs {
			ix, ok := lhs.(*ast.IndexExpr)
			if !ok {
				continue
			}
			baseID, ok := ix.X.(*ast.Ident)
			if !ok {
				continue
			}
			v := c.useOf(baseID)
			if v == nil {
				continue
			}
			switch c.classify(ix.X, 0) {
			case classLocal, classScratch:
				stores[v] = append(stores[v], as.Rhs[i])
			default:
				disqualified[v] = true
			}
		}
	})
	for v, rhss := range stores {
		if disqualified[v] {
			continue
		}
		ok := true
		for _, rhs := range rhss {
			id, isID := rhs.(*ast.Ident)
			if !isID || !c.blessedIdentUse(id) {
				ok = false
				break
			}
		}
		c.storedOK[v] = ok
	}
}

// blessedIdentUse reports whether an identifier use is a provably in-range
// index by itself: s, lo, or a blessed loop variable with untampered defs.
func (c *passBodyCheck) blessedIdentUse(id *ast.Ident) bool {
	v := c.useOf(id)
	if v == nil {
		return false
	}
	if v == c.sObj || v == c.loObj {
		return true
	}
	if bl := c.blessed[v]; bl != nil {
		return c.defsWithin(id, bl.sites)
	}
	return false
}

// indexOK reports whether idx is provably inside the shard's own range.
func (c *passBodyCheck) indexOK(idx ast.Expr) bool {
	switch e := idx.(type) {
	case *ast.Ident:
		if c.blessedIdentUse(e) {
			return true
		}
		// A local whose every definition reads out of an in-range index
		// store (a := arcIdx[k]).
		defs := c.reach.DefsOf(e)
		if len(defs) == 0 {
			return false
		}
		for _, d := range defs {
			as, ok := d.Site.(*ast.AssignStmt)
			if !ok || len(as.Lhs) != len(as.Rhs) {
				return false
			}
			found := false
			for i, lhs := range as.Lhs {
				if lid, ok := lhs.(*ast.Ident); ok && c.pass.TypesInfo.Defs[lid] == d.Obj || ok && c.useOf(lid) == d.Obj {
					if c.indexReadOK(as.Rhs[i]) {
						found = true
					}
					break
				}
			}
			if !found {
				return false
			}
		}
		return true
	case *ast.IndexExpr:
		return c.indexReadOK(e)
	}
	return false
}

// indexReadOK reports whether e is a read that yields an in-range index: an
// element of a storedOK slice, or a blessed identifier.
func (c *passBodyCheck) indexReadOK(e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.Ident:
		return c.blessedIdentUse(e)
	case *ast.IndexExpr:
		baseID, ok := e.X.(*ast.Ident)
		if !ok {
			return false
		}
		v := c.useOf(baseID)
		return v != nil && c.storedOK[v]
	}
	return false
}

// classify resolves the sharing class of a slice/struct base expression.
func (c *passBodyCheck) classify(e ast.Expr, depth int) sliceClass {
	if depth > 12 {
		return classShared
	}
	switch e := e.(type) {
	case *ast.Ident:
		v := c.useOf(e)
		if v == nil || !c.reach.Tracked(v) {
			// Captured from the enclosing function or global: shared.
			return classShared
		}
		defs := c.reach.DefsOf(e)
		if len(defs) == 0 {
			return classShared
		}
		cls := sliceClass(-1)
		for _, d := range defs {
			dc := c.classifyDef(d, depth)
			if cls == sliceClass(-1) {
				cls = dc
			} else if cls != dc {
				return classShared
			}
		}
		return cls
	case *ast.SelectorExpr:
		if sel := c.pass.TypesInfo.Selections[e]; sel != nil {
			if v, ok := sel.Obj().(*types.Var); ok && c.dblBuf[v] {
				return classDoubleBuf
			}
		}
		return c.classify(e.X, depth+1)
	case *ast.IndexExpr:
		if id, ok := e.Index.(*ast.Ident); ok && c.useOf(id) == c.sObj && c.sObj != nil {
			return classScratch
		}
		return c.classify(e.X, depth+1)
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			return c.classify(e.X, depth+1)
		}
	case *ast.StarExpr:
		return c.classify(e.X, depth+1)
	case *ast.SliceExpr:
		return c.classify(e.X, depth+1)
	case *ast.ParenExpr:
		return c.classify(e.X, depth+1)
	case *ast.CallExpr:
		if id, ok := e.Fun.(*ast.Ident); ok {
			switch id.Name {
			case "make", "new":
				if c.pass.TypesInfo.Uses[id] == nil || c.pass.TypesInfo.Uses[id].Parent() == types.Universe {
					return classLocal
				}
			case "append":
				if len(e.Args) > 0 {
					return c.classify(e.Args[0], depth+1)
				}
			}
		}
		return classShared
	case *ast.CompositeLit:
		return classLocal
	}
	return classShared
}

// classifyDef resolves the class a single definition gives its variable.
func (c *passBodyCheck) classifyDef(d driver.Def, depth int) sliceClass {
	if d.Entry {
		// Receiver or parameter: state shared across shards.
		return classShared
	}
	switch site := d.Site.(type) {
	case *ast.AssignStmt:
		if len(site.Lhs) == len(site.Rhs) {
			for i, lhs := range site.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok {
					continue
				}
				obj := c.pass.TypesInfo.Defs[id]
				if obj == nil {
					obj = c.pass.TypesInfo.Uses[id]
				}
				if obj == types.Object(d.Obj) {
					return c.classify(site.Rhs[i], depth+1)
				}
			}
		}
		return classShared
	case *ast.ValueSpec:
		if len(site.Values) == 0 {
			// var x []T — nil until locally grown.
			return classLocal
		}
		if len(site.Values) == len(site.Names) {
			for i, name := range site.Names {
				if c.pass.TypesInfo.Defs[name] == types.Object(d.Obj) {
					return c.classify(site.Values[i], depth+1)
				}
			}
		}
	}
	return classShared
}

// checkWrite validates one assignment target inside the pass body.
func (c *passBodyCheck) checkWrite(lhs ast.Expr) {
	switch lhs := lhs.(type) {
	case *ast.Ident:
		v := c.useOf(lhs)
		if v != nil && !c.reach.Tracked(v) && !v.IsField() {
			c.pass.Reportf(lhs.Pos(),
				"write to captured variable %q from a pass body: every shard's worker races on it; use a per-shard slot indexed by s and reduce after the join",
				lhs.Name)
		}
	case *ast.IndexExpr:
		switch c.classify(lhs.X, 0) {
		case classShared:
			if !c.indexOK(lhs.Index) {
				c.pass.Reportf(lhs.Pos(),
					"write to shared %s is not provably inside this shard's range (index %s): cross-shard writes race under work stealing; index by the shard's node/arc loop, the [s] slot, or route the buffer through a //lbvet:doublebuffer field",
					types.ExprString(lhs.X), types.ExprString(lhs.Index))
			}
		}
	case *ast.SelectorExpr:
		switch c.classify(lhs, 0) {
		case classShared:
			c.pass.Reportf(lhs.Pos(),
				"write to shared field %s from a pass body: all shards race on it; accumulate into per-shard scratch and reduce after the join",
				types.ExprString(lhs))
		}
	case *ast.StarExpr:
		if c.classify(lhs.X, 0) == classShared {
			c.pass.Reportf(lhs.Pos(),
				"write through shared pointer %s from a pass body races across shards",
				types.ExprString(lhs.X))
		}
	}
}

// checkCopy validates builtin copy calls: copying into a shared slice is
// only allowed through an explicit [lo:hi] window.
func (c *passBodyCheck) checkCopy(call *ast.CallExpr) {
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != "copy" || len(call.Args) != 2 {
		return
	}
	if obj := c.pass.TypesInfo.Uses[id]; obj == nil || obj.Parent() != types.Universe {
		return
	}
	dst := call.Args[0]
	if se, ok := dst.(*ast.SliceExpr); ok {
		lo, okLo := se.Low.(*ast.Ident)
		hi, okHi := se.High.(*ast.Ident)
		if okLo && okHi && c.useOf(lo) == c.loObj && c.useOf(hi) == c.hiObj {
			return
		}
		dst = se.X
	}
	if c.classify(dst, 0) == classShared {
		c.pass.Reportf(call.Pos(),
			"copy into shared %s from a pass body has no provable shard bound; copy into dst[lo:hi]",
			types.ExprString(call.Args[0]))
	}
}

// checkLoopVarEscape flags loop variables captured by goroutine literals:
// the goroutine reads iteration state asynchronously, so the handoff must be
// explicit arguments, not captures.
func checkLoopVarEscape(pass *driver.Pass, body ast.Node) {
	var walk func(n ast.Node, active map[*types.Var]bool)
	walk = func(n ast.Node, active map[*types.Var]bool) {
		ast.Inspect(n, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ForStmt:
				inner := withLoopVars(pass, active, forLoopVars(pass, n))
				if n.Init != nil {
					walk(n.Init, active)
				}
				for _, part := range []ast.Node{n.Cond, n.Post, n.Body} {
					if part != nil {
						walk(part, inner)
					}
				}
				return false
			case *ast.RangeStmt:
				inner := withLoopVars(pass, active, rangeLoopVars(pass, n))
				walk(n.X, active)
				walk(n.Body, inner)
				return false
			case *ast.GoStmt:
				if fl, ok := n.Call.Fun.(*ast.FuncLit); ok {
					reportCaptured(pass, fl, active)
				}
				for _, arg := range n.Call.Args {
					walk(arg, active)
				}
				return false
			}
			return true
		})
	}
	walk(body, map[*types.Var]bool{})
}

func forLoopVars(pass *driver.Pass, f *ast.ForStmt) []*types.Var {
	init, ok := f.Init.(*ast.AssignStmt)
	if !ok || init.Tok != token.DEFINE {
		return nil
	}
	var vars []*types.Var
	for _, lhs := range init.Lhs {
		if id, ok := lhs.(*ast.Ident); ok {
			if v, ok := pass.TypesInfo.Defs[id].(*types.Var); ok {
				vars = append(vars, v)
			}
		}
	}
	return vars
}

func rangeLoopVars(pass *driver.Pass, r *ast.RangeStmt) []*types.Var {
	if r.Tok != token.DEFINE {
		return nil
	}
	var vars []*types.Var
	for _, e := range []ast.Expr{r.Key, r.Value} {
		if id, ok := e.(*ast.Ident); ok {
			if v, ok := pass.TypesInfo.Defs[id].(*types.Var); ok {
				vars = append(vars, v)
			}
		}
	}
	return vars
}

func withLoopVars(pass *driver.Pass, active map[*types.Var]bool, vars []*types.Var) map[*types.Var]bool {
	if len(vars) == 0 {
		return active
	}
	inner := make(map[*types.Var]bool, len(active)+len(vars))
	for v := range active {
		inner[v] = true
	}
	for _, v := range vars {
		inner[v] = true
	}
	return inner
}

func reportCaptured(pass *driver.Pass, fl *ast.FuncLit, active map[*types.Var]bool) {
	if len(active) == 0 {
		return
	}
	seen := map[*types.Var]bool{}
	ast.Inspect(fl.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := pass.TypesInfo.Uses[id].(*types.Var)
		if ok && active[v] && !seen[v] {
			seen[v] = true
			pass.Reportf(id.Pos(),
				"loop variable %q captured by a goroutine launched in the loop: the spawn reads iteration state asynchronously; pass it as an argument so the handoff is explicit",
				id.Name)
		}
		return true
	})
}
