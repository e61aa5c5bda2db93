package driver

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Def is one definition site of a function-local variable.
type Def struct {
	// Obj is the defined variable.
	Obj *types.Var
	// Site is the defining node: an *ast.AssignStmt, *ast.IncDecStmt,
	// *ast.ValueSpec, *ast.RangeStmt (per-iteration key/value), or the
	// *ast.Field / *ast.Ident of a parameter for entry definitions.
	Site ast.Node
	// Entry marks parameter/receiver/named-result definitions live at
	// function entry.
	Entry bool
}

// ReachingDefs answers, for every use of a function-local variable, which
// definitions may reach it — classic forward may-analysis over the CFG.
// Variables belonging to enclosing functions (closure captures) and package
// globals are not tracked: DefsOf returns nil for them, which the analyzers
// treat as "shared, assume the worst". Identifiers inside nested function
// literals are likewise untracked (the literal gets its own CFG and
// ReachingDefs when analyzed).
type ReachingDefs struct {
	uses map[*ast.Ident][]Def
	defs map[*types.Var][]Def
}

// NewReachingDefs runs the analysis for cfg against the type information of
// its package.
func NewReachingDefs(cfg *CFG, info *types.Info) *ReachingDefs {
	r := &rdBuilder{
		info:   info,
		out:    &ReachingDefs{uses: map[*ast.Ident][]Def{}, defs: map[*types.Var][]Def{}},
		defIdx: map[*types.Var]map[ast.Node]int{},
		fnPos:  cfg.Fn.Pos(),
		fnEnd:  cfg.Fn.End(),
	}
	r.solve(cfg)
	return r.out
}

// DefsOf returns the definitions that may reach the given use, or nil when
// the identifier is not a tracked local (captured from an enclosing
// function, a global, a field, or inside a nested function literal).
func (r *ReachingDefs) DefsOf(use *ast.Ident) []Def {
	return r.uses[use]
}

// Tracked reports whether v is a local of the analyzed function.
func (r *ReachingDefs) Tracked(v *types.Var) bool {
	_, ok := r.defs[v]
	return ok
}

type rdBuilder struct {
	info *types.Info
	out  *ReachingDefs

	// allDefs is the global numbering of definitions; defIdx maps
	// (var, site) to its index.
	allDefs []Def
	defIdx  map[*types.Var]map[ast.Node]int

	// fnPos/fnEnd span the analyzed function: variables declared outside it
	// (closure captures, globals) stay untracked even when assigned inside.
	fnPos, fnEnd token.Pos
}

// defSet is a small bitset over allDefs indices.
type defSet []uint64

func newDefSet(n int) defSet    { return make(defSet, (n+63)/64) }
func (s defSet) has(i int) bool { return s[i/64]&(1<<(i%64)) != 0 }
func (s defSet) add(i int)      { s[i/64] |= 1 << (i % 64) }
func (s defSet) clone() defSet  { c := make(defSet, len(s)); copy(c, s); return c }
func (s defSet) union(o defSet) bool {
	changed := false
	for i := range s {
		if n := s[i] | o[i]; n != s[i] {
			s[i] = n
			changed = true
		}
	}
	return changed
}

func (r *rdBuilder) solve(cfg *CFG) {
	// Pass 1: number every definition site. Entry defs come from the
	// function signature (receiver, params, named results).
	r.entryDefs(cfg.Fn)
	blockDefs := make([][]int, len(cfg.Blocks))
	for _, blk := range cfg.Blocks {
		for _, n := range blk.Nodes {
			for _, d := range r.nodeDefs(n) {
				blockDefs[blk.Index] = append(blockDefs[blk.Index], r.record(d))
			}
		}
	}
	n := len(r.allDefs)
	if n == 0 {
		return
	}
	// kill[v] = all defs of v.
	killOf := map[*types.Var]defSet{}
	for i, d := range r.allDefs {
		ks, ok := killOf[d.Obj]
		if !ok {
			ks = newDefSet(n)
			killOf[d.Obj] = ks
		}
		ks.add(i)
	}

	// Transfer per block: out = gen ∪ (in − kill), with gen/kill from the
	// ordered event list.
	ins := make([]defSet, len(cfg.Blocks))
	outs := make([]defSet, len(cfg.Blocks))
	for i := range cfg.Blocks {
		ins[i] = newDefSet(n)
		outs[i] = newDefSet(n)
	}
	// Entry block starts with the entry definitions.
	for i, d := range r.allDefs {
		if d.Entry {
			ins[cfg.Entry.Index].add(i)
		}
	}
	transfer := func(blk *Block) defSet {
		cur := ins[blk.Index].clone()
		for _, idx := range blockDefs[blk.Index] {
			d := r.allDefs[idx]
			for i := range cur {
				cur[i] &^= killOf[d.Obj][i]
			}
			cur.add(idx)
		}
		return cur
	}
	// Worklist iteration to fixpoint.
	preds := make([][]*Block, len(cfg.Blocks))
	for _, blk := range cfg.Blocks {
		for _, s := range blk.Succs {
			preds[s.Index] = append(preds[s.Index], blk)
		}
	}
	work := append([]*Block{}, cfg.Blocks...)
	for len(work) > 0 {
		blk := work[len(work)-1]
		work = work[:len(work)-1]
		in := ins[blk.Index]
		for _, p := range preds[blk.Index] {
			in.union(outs[p.Index])
		}
		out := transfer(blk)
		if outs[blk.Index].union(out) {
			work = append(work, blk.Succs...)
		}
	}

	// Pass 2: resolve uses by replaying each block with its final in-set.
	for _, blk := range cfg.Blocks {
		cur := ins[blk.Index].clone()
		for _, node := range blk.Nodes {
			r.resolveUses(node, cur)
			for _, d := range r.nodeDefs(node) {
				idx := r.defIdx[d.Obj][d.Site]
				for i := range cur {
					cur[i] &^= killOf[d.Obj][i]
				}
				cur.add(idx)
			}
		}
	}
}

// record numbers d (idempotently) and registers it in the public def table.
func (r *rdBuilder) record(d Def) int {
	m, ok := r.defIdx[d.Obj]
	if !ok {
		m = map[ast.Node]int{}
		r.defIdx[d.Obj] = m
	}
	if idx, ok := m[d.Site]; ok {
		return idx
	}
	idx := len(r.allDefs)
	r.allDefs = append(r.allDefs, d)
	m[d.Site] = idx
	r.out.defs[d.Obj] = append(r.out.defs[d.Obj], d)
	return idx
}

// entryDefs records the signature-carried definitions of fn.
func (r *rdBuilder) entryDefs(fn ast.Node) {
	var ft *ast.FuncType
	var recv *ast.FieldList
	switch fn := fn.(type) {
	case *ast.FuncDecl:
		ft = fn.Type
		recv = fn.Recv
	case *ast.FuncLit:
		ft = fn.Type
	}
	addFields := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, f := range fl.List {
			for _, name := range f.Names {
				if v, ok := r.info.Defs[name].(*types.Var); ok {
					r.record(Def{Obj: v, Site: name, Entry: true})
				}
			}
		}
	}
	addFields(recv)
	if ft != nil {
		addFields(ft.Params)
		addFields(ft.Results)
	}
}

// nodeDefs extracts the ordered definitions a single CFG node performs.
// It pattern-matches the node shallowly: definitions inside nested function
// literals belong to the literal's own CFG, not this one.
func (r *rdBuilder) nodeDefs(n ast.Node) []Def {
	var defs []Def
	addIdent := func(id *ast.Ident, site ast.Node) {
		if id == nil || id.Name == "_" {
			return
		}
		obj := r.info.Defs[id]
		if obj == nil {
			obj = r.info.Uses[id]
		}
		if v, ok := obj.(*types.Var); ok && !v.IsField() && v.Pos() >= r.fnPos && v.Pos() <= r.fnEnd {
			defs = append(defs, Def{Obj: v, Site: site})
		}
	}
	switch n := n.(type) {
	case *ast.AssignStmt:
		for _, lhs := range n.Lhs {
			if id, ok := lhs.(*ast.Ident); ok {
				addIdent(id, n)
			}
		}
	case *ast.IncDecStmt:
		if id, ok := n.X.(*ast.Ident); ok {
			addIdent(id, n)
		}
	case *ast.DeclStmt:
		if gd, ok := n.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, name := range vs.Names {
						addIdent(name, vs)
					}
				}
			}
		}
	case *ast.RangeStmt:
		if id, ok := n.Key.(*ast.Ident); ok {
			addIdent(id, n)
		}
		if id, ok := n.Value.(*ast.Ident); ok {
			addIdent(id, n)
		}
	}
	return defs
}

// resolveUses records, for every tracked-variable use inside node, the
// definitions live at that point. Nested function literals are skipped; for
// assignments the pure-LHS identifiers are definitions, not uses (but index
// and selector operands on the LHS are uses).
func (r *rdBuilder) resolveUses(node ast.Node, live defSet) {
	skipLHS := map[*ast.Ident]bool{}
	if as, ok := node.(*ast.AssignStmt); ok {
		for _, lhs := range as.Lhs {
			if id, ok := lhs.(*ast.Ident); ok {
				skipLHS[id] = true
			}
		}
	}
	// For range statements only the key/value/X expressions belong to this
	// node; the body is its own set of blocks.
	roots := []ast.Node{node}
	if rs, ok := node.(*ast.RangeStmt); ok {
		roots = roots[:0]
		if rs.X != nil {
			roots = append(roots, rs.X)
		}
	}
	for _, root := range roots {
		ast.Inspect(root, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncLit:
				return false
			case *ast.BlockStmt:
				// Statement nodes only carry their own expressions in this
				// CFG; bodies (if/for/...) are separate blocks.
				return false
			case *ast.Ident:
				if skipLHS[n] {
					return true
				}
				v, ok := r.info.Uses[n].(*types.Var)
				if !ok || v.IsField() {
					return true
				}
				if _, tracked := r.defIdx[v]; !tracked {
					return true
				}
				var ds []Def
				for _, d := range r.out.defs[v] {
					if live.has(r.defIdx[v][d.Site]) {
						ds = append(ds, d)
					}
				}
				r.out.uses[n] = ds
			}
			return true
		})
	}
}
