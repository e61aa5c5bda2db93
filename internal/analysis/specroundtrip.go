package analysis

import (
	"go/ast"
	"go/types"
	"regexp"
	"strings"

	"diffusionlb/internal/analysis/driver"
)

// SpecRoundtrip enforces the spec-grammar convention shared by the
// graph/speeds/workload/policy/envdyn/scenario/runtime parsers, which all
// read their arguments through internal/spec: every exported FromSpec
// parser must return a type carrying a Name() string method (the canonical
// spec the value round-trips through), and its package must have a Fuzz*
// test exercising the parser.
//
// The pairing is what keeps the spec grammars honest: Name() makes every
// parsed value re-parseable (sweep CSV columns, CLI echo, checkpoint
// metadata all rely on it), and the fuzz target is what actually proves the
// FromSpec(Name()) round-trip beyond hand-picked seeds.
var SpecRoundtrip = &driver.Analyzer{
	Name: "specroundtrip",
	Doc: "every exported *FromSpec parser must return a type with a Name() string " +
		"method and have a Fuzz* round-trip test in its package",
	Run: runSpecRoundtrip,
}

// fromSpecRE matches exported spec parsers: FromSpec, SpeedsFromSpec,
// PolicyFromSpec, ...
var fromSpecRE = regexp.MustCompile(`^([A-Z][A-Za-z0-9]*)?FromSpec$`)

func runSpecRoundtrip(pass *driver.Pass) error {
	var parsers []*ast.FuncDecl
	for _, f := range pass.Files {
		if pass.IsTestFile(f.Pos()) {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv != nil || !fromSpecRE.MatchString(fd.Name.Name) {
				continue
			}
			parsers = append(parsers, fd)
			checkNameMethod(pass, fd)
		}
	}
	if len(parsers) == 0 {
		return nil
	}
	if !hasFuzzTarget(pass) {
		names := make([]string, len(parsers))
		for i, fd := range parsers {
			names[i] = fd.Name.Name
		}
		pass.Reportf(parsers[0].Pos(),
			"package %s declares spec parser(s) %s but no Fuzz* test; add a fuzz target proving the FromSpec(Name()) round-trip",
			pass.Pkg.Name(), strings.Join(names, ", "))
	}
	return nil
}

// checkNameMethod verifies that the parser's first non-error result type
// has a Name() string method.
func checkNameMethod(pass *driver.Pass, fd *ast.FuncDecl) {
	fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
	if !ok {
		return
	}
	sig := fn.Type().(*types.Signature)
	var res types.Type
	for i := 0; i < sig.Results().Len(); i++ {
		t := sig.Results().At(i).Type()
		if !isErrorType(t) {
			res = t
			break
		}
	}
	if res == nil {
		return
	}
	obj, _, _ := types.LookupFieldOrMethod(res, true, pass.Pkg, "Name")
	m, ok := obj.(*types.Func)
	if ok {
		msig := m.Type().(*types.Signature)
		if msig.Params().Len() == 0 && msig.Results().Len() == 1 &&
			types.Identical(msig.Results().At(0).Type(), types.Typ[types.String]) {
			return
		}
	}
	pass.Reportf(fd.Pos(),
		"%s returns %s, which has no Name() string method; spec-parsed types must render their canonical spec so values round-trip",
		fd.Name.Name, res)
}

// isErrorType reports whether t is the built-in error interface.
func isErrorType(t types.Type) bool {
	return types.Identical(t, types.Universe.Lookup("error").Type())
}

// hasFuzzTarget scans the package's test files (in-package and external)
// for a Fuzz* function taking *testing.F. The external test package is only
// parsed, so the check there is syntactic.
func hasFuzzTarget(pass *driver.Pass) bool {
	isFuzzDecl := func(fd *ast.FuncDecl) bool {
		if fd.Recv != nil || !strings.HasPrefix(fd.Name.Name, "Fuzz") {
			return false
		}
		p := fd.Type.Params
		if p == nil || len(p.List) != 1 {
			return false
		}
		star, ok := p.List[0].Type.(*ast.StarExpr)
		if !ok {
			return false
		}
		sel, ok := star.X.(*ast.SelectorExpr)
		return ok && sel.Sel.Name == "F"
	}
	for _, f := range append(append([]*ast.File{}, pass.Files...), pass.XTestFiles...) {
		if !pass.IsTestFile(f.Pos()) {
			continue
		}
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && isFuzzDecl(fd) {
				return true
			}
		}
	}
	return false
}
