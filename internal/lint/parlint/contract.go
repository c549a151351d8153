package parlint

import (
	"go/ast"
	"go/types"

	"repro/internal/lint"
)

// GlobalMut flags writes to package-level variables reachable from
// simulation code.  The study pool runs many kernels at once, so such a
// write is a data race the moment two jobs reach it — and a leak of
// one job's state into another's results — a static pre-screen for
// what -race can only catch when the schedule happens to collide.
var GlobalMut = &lint.Analyzer{
	Name: "globalmut",
	Doc:  "flags writes to package-level state reachable from simulation code",
	RunModule: func(pass *lint.ModulePass) error {
		c := contextOf(pass.Graph)
		report := func(n *lint.FuncNode, target ast.Expr) {
			if v := packageLevelTarget(n.Pkg, target); v != nil {
				pass.Report(target.Pos(),
					"write to package-level %s.%s from simulation code (via %s); concurrent jobs share it — move the state into the run",
					v.Pkg().Name(), v.Name(), chain(c.simReach, n))
			}
		}
		for _, n := range reachedNodes(c.g, c.simReach) {
			n := n
			inspectOwn(n, func(nd ast.Node) bool {
				switch nd := nd.(type) {
				case *ast.AssignStmt:
					for _, lhs := range nd.Lhs {
						report(n, lhs)
					}
				case *ast.IncDecStmt:
					report(n, nd.X)
				}
				return true
			})
		}
		return nil
	},
}

// packageLevelTarget resolves an assignment target to the
// package-level variable whose storage it writes, or nil.  The walk
// peels selectors, indexing and derefs down to the root identifier:
// writing a field or element of a package-level variable mutates
// shared state just the same.
func packageLevelTarget(pkg *lint.Package, lhs ast.Expr) *types.Var {
	for {
		switch e := ast.Unparen(lhs).(type) {
		case *ast.SelectorExpr:
			// Qualified reference to another package's variable: the
			// root identifier is the package name, the var is the Sel.
			if id, ok := ast.Unparen(e.X).(*ast.Ident); ok {
				if _, isPkg := pkg.Info.Uses[id].(*types.PkgName); isPkg {
					if v, ok := pkg.Info.Uses[e.Sel].(*types.Var); ok && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
						return v
					}
					return nil
				}
			}
			lhs = e.X
		case *ast.IndexExpr:
			lhs = e.X
		case *ast.StarExpr:
			lhs = e.X
		case *ast.Ident:
			obj := pkg.Info.Uses[e]
			if obj == nil {
				obj = pkg.Info.Defs[e]
			}
			v, ok := obj.(*types.Var)
			if !ok || v.Pkg() == nil {
				return nil
			}
			// Package-level: declared directly in the package scope.
			if v.Parent() == v.Pkg().Scope() {
				return v
			}
			return nil
		default:
			return nil
		}
	}
}
