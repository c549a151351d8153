// Package parlint holds the interprocedural checks that guard running
// many simulation kernels in one process (the study pool's -j):
//
//   - package-level mutable state must not be written from simulation
//     code (globalmut): kernels of concurrent jobs would share the
//     variable, a data race and a determinism leak between jobs — a
//     static pre-screen for what -race only catches when the schedule
//     happens to collide;
//
// plus interprocedural upgrades of detlint's wallclock / globalrand /
// maporder checks: a helper that wraps time.Now three calls deep is
// reported at its simulation-context call site, which the syntactic
// pass cannot see.
//
// The analyzers reason over the module-wide call graph (internal/lint).
// Simulation code is everything reachable from the function values
// handed to the vtime kernel: actor bodies passed to Kernel.Spawn and
// completion callbacks passed to Kernel.Post.  The traversal is a
// deliberate over-approximation — interface dispatch fans out to every
// implementing type, function values to everything that flows there —
// so a clean run is a guarantee, and a false positive is silenced with
// "//detlint:allow <name>: why".
//
// The vtime package itself is exempt: its one sanctioned wall-clock
// read (the watchdog budget) is allowed explicitly, and its state is
// per kernel.
package parlint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"repro/internal/lint"
)

// Analyzers is the suite in reporting order.
func Analyzers() []*lint.Analyzer {
	return []*lint.Analyzer{GlobalMut, WallclockTaint, GlobalRandTaint, MapOrderTaint}
}

// step is one predecessor edge of a reachability traversal.
type step struct {
	from *lint.FuncNode
	site token.Pos
}

// ctx is the shared context model computed once per call graph.
type ctx struct {
	g *lint.CallGraph

	// simReach maps every function reachable from a callback handed to
	// vtime (Spawn bodies, Post completions) to its predecessor edge
	// (roots map to a zero step).  Everything here executes under
	// simulated time.
	simReach map[*lint.FuncNode]step
}

// ctxCache memoises the context per call graph; the runner executes
// the suite's analyzers sequentially over one graph.
var ctxCache = map[*lint.CallGraph]*ctx{}

func contextOf(g *lint.CallGraph) *ctx {
	if c, ok := ctxCache[g]; ok {
		return c
	}
	c := &ctx{g: g, simReach: make(map[*lint.FuncNode]step)}
	c.computeReach()
	ctxCache[g] = c
	return c
}

// isVtimePkg reports whether a package is the kernel package.  Matched
// by path suffix so linttest corpus modules with a stub vtime
// subpackage model the real API.
func isVtimePkg(p *types.Package) bool {
	if p == nil {
		return false
	}
	path := p.Path()
	return path == "vtime" || strings.HasSuffix(path, "/vtime")
}

func isVtimeNode(n *lint.FuncNode) bool {
	return n.Pkg.Types != nil && isVtimePkg(n.Pkg.Types)
}

// isVtimeFunc reports whether a callee belongs to the kernel API.
func isVtimeFunc(fn *types.Func) bool {
	return fn != nil && isVtimePkg(fn.Pkg())
}

// computeReach walks call edges from the simulation roots: every
// function value passed to any vtime API call (Spawn bodies, Post
// completion callbacks and friends).
func (c *ctx) computeReach() {
	var simRoots []*lint.FuncNode
	seen := make(map[*lint.FuncNode]bool)
	add := func(t *lint.FuncNode) {
		if !seen[t] && !isVtimeNode(t) {
			seen[t] = true
			simRoots = append(simRoots, t)
		}
	}
	for _, n := range c.g.Nodes {
		if isVtimeNode(n) {
			continue
		}
		for _, cs := range n.Calls {
			if !isVtimeFunc(cs.Callee) {
				continue
			}
			for _, arg := range cs.Expr.Args {
				for _, t := range c.g.FuncValues(n.Pkg, arg) {
					add(t)
				}
			}
		}
	}
	sort.Slice(simRoots, func(i, j int) bool { return simRoots[i].Index < simRoots[j].Index })
	c.bfs(simRoots, c.simReach)
}

// bfs walks call edges from the roots.  Edges into vtime are never
// followed: the kernel's internals are exempt.
func (c *ctx) bfs(roots []*lint.FuncNode, reach map[*lint.FuncNode]step) {
	queue := make([]*lint.FuncNode, 0, len(roots))
	for _, r := range roots {
		if _, ok := reach[r]; !ok {
			reach[r] = step{}
			queue = append(queue, r)
		}
	}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, cs := range n.Calls {
			if isVtimeFunc(cs.Callee) {
				continue // callbacks handed to vtime are roots, not descents
			}
			for _, t := range cs.Targets {
				if isVtimeNode(t) {
					continue
				}
				if _, ok := reach[t]; !ok {
					reach[t] = step{from: n, site: cs.Site}
					queue = append(queue, t)
				}
			}
		}
	}
}

// chain renders the witness path from a traversal root to n, e.g.
// "simmpi.Launch$1 → simmpi.NewTeam".  Cycles cannot occur: reach
// holds the first (acyclic) predecessor edge of each node.
func chain(reach map[*lint.FuncNode]step, n *lint.FuncNode) string {
	var names []string
	for cur := n; cur != nil; {
		names = append(names, cur.Name)
		cur = reach[cur].from
	}
	for i, j := 0, len(names)-1; i < j; i, j = i+1, j-1 {
		names[i], names[j] = names[j], names[i]
	}
	return strings.Join(names, " → ")
}

// reachedNodes returns the reached nodes in deterministic index order,
// excluding vtime internals.
func reachedNodes(g *lint.CallGraph, reach map[*lint.FuncNode]step) []*lint.FuncNode {
	var out []*lint.FuncNode
	for _, n := range g.Nodes { // Nodes is already in index order
		if _, ok := reach[n]; ok && !isVtimeNode(n) {
			out = append(out, n)
		}
	}
	return out
}

// inspectOwn walks a node's own body, skipping nested function
// literals (they are their own nodes).
func inspectOwn(n *lint.FuncNode, fn func(ast.Node) bool) {
	ast.Inspect(n.Body(), func(nd ast.Node) bool {
		if _, isLit := nd.(*ast.FuncLit); isLit {
			return false
		}
		return fn(nd)
	})
}
