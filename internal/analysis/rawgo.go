package analysis

import (
	"go/ast"
	"go/types"
	"path/filepath"
	"strings"
)

// rawgoApproved lists the only non-test files allowed to start
// goroutines: go statements, and iter.Pull/iter.Pull2 calls, whose
// coroutines run on goroutines of their own. The conservative
// safe-window scheduler's determinism proof rests on exactly one
// goroutine executing simulation state per kernel; every goroutine in the
// tree must therefore be one of the audited handoff structures:
//
//   - internal/sim/pdes.go      — the PDES domain workers, synchronized
//     by the winSeq/doneSeq window barrier.
//   - internal/sim/proc.go      — the kernel's Proc coroutines
//     (iter.Pull): the kernel loop runs one at a time through the
//     coroutine's next, and it runs until it yields (SimPy-style).
//   - internal/bench/parallel.go — the sweep worker pool; each job owns
//     a private kernel, results assemble in job-index order.
//
// A goroutine anywhere else has no barrier to synchronize with and would
// race simulation state or reorder observable output, so there is no
// escape directive: new concurrency surfaces must be added here, in
// review, with their synchronization story.
var rawgoApproved = []string{
	"internal/sim/pdes.go",
	"internal/sim/proc.go",
	"internal/bench/parallel.go",
}

// Rawgo flags go statements and iter.Pull/iter.Pull2 calls outside the
// approved concurrency surfaces.
var Rawgo = &Analyzer{
	Name: "rawgo",
	Doc: "flag go statements and iter.Pull/iter.Pull2 calls outside the approved concurrency surfaces " +
		"(internal/sim/pdes.go, internal/sim/proc.go, internal/bench/parallel.go) and test files; stray goroutines " +
		"break the conservative scheduler's determinism proof.",
	Run: runRawgo,
}

func rawgoFileApproved(filename string) bool {
	f := filepath.ToSlash(filename)
	for _, a := range rawgoApproved {
		if f == a || strings.HasSuffix(f, "/"+a) {
			return true
		}
	}
	return false
}

func runRawgo(pass *Pass) (any, error) {
	for _, f := range pass.Files {
		if pass.IsTestFile(f.Pos()) {
			continue
		}
		if rawgoFileApproved(pass.Fset.Position(f.Pos()).Filename) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				pass.Reportf(n.Pos(),
					"go statement outside the approved concurrency surfaces (%s): "+
						"stray goroutines break the conservative safe-window scheduler's determinism proof",
					strings.Join(rawgoApproved, ", "))
			case *ast.CallExpr:
				if name := iterPullCall(pass, n); name != "" {
					pass.Reportf(n.Pos(),
						"iter.%s starts a coroutine goroutine outside the approved concurrency surfaces (%s): "+
							"stray goroutines break the conservative safe-window scheduler's determinism proof",
						name, strings.Join(rawgoApproved, ", "))
				}
			}
			return true
		})
	}
	return nil, nil
}

// iterPullCall returns "Pull" or "Pull2" if call calls that function of
// package iter (explicitly instantiated or not), else "".
func iterPullCall(pass *Pass, call *ast.CallExpr) string {
	fun := call.Fun
	switch f := fun.(type) {
	case *ast.IndexExpr:
		fun = f.X
	case *ast.IndexListExpr:
		fun = f.X
	}
	sel, ok := fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "iter" {
		return ""
	}
	if name := fn.Name(); name == "Pull" || name == "Pull2" {
		return name
	}
	return ""
}
