package analysis

import (
	"go/ast"
	"go/types"
)

// detrangeEmitters maps a defining package path to the method/function
// names that emit externally observable, order-sensitive records: trace
// events, metric observations, wire captures, and cross-shard outbox
// entries. Emitting one of these from inside a range over a map bakes
// Go's randomized iteration order into the observable output — exactly
// the bug class internal/obs/merge.go's canonicalization exists to
// prevent on the other side of the shard boundary. The fix is always the
// same: collect the keys, sort them, and range over the slice.
var detrangeEmitters = map[string]map[string]bool{
	"nectar/internal/obs": {
		// Observer trace events.
		"Instant": true, "InstantSeq": true, "InstantArg": true,
		"Begin": true, "BeginSeq": true, "End": true,
		"emit": true,
		// Wire captures.
		"CapturePacket": true, "add": true,
		// Metric observations.
		"Inc": true, "Add": true, "Observe": true,
		// Sink delivery.
		"Event": true,
	},
	"nectar/internal/sim": {
		// Cross-shard outbox entries (Domain.Send buffers into the
		// per-destination outbox drained at the window barrier).
		"Send": true,
	},
}

// Detrange flags trace/metric/capture/outbox emission from inside a
// range over a map.
var Detrange = &Analyzer{
	Name: "detrange",
	Doc: "flag range-over-map loops whose body emits trace events, metrics, wire captures, or cross-shard outbox " +
		"entries: map iteration order is nondeterministic, so the emission order would differ between runs. " +
		"Iterate a sorted key slice instead (cf. internal/obs/merge.go).",
	Run: runDetrange,
}

func runDetrange(pass *Pass) (any, error) {
	for _, f := range pass.Files {
		if pass.IsTestFile(f.Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			rs, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			tv, ok := pass.TypesInfo.Types[rs.X]
			if !ok || tv.Type == nil {
				return true
			}
			t := tv.Type.Underlying()
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem().Underlying()
			}
			if _, ok := t.(*types.Map); !ok {
				return true
			}
			ast.Inspect(rs.Body, func(m ast.Node) bool {
				call, ok := m.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				pkg, name := emitterOf(pass, sel)
				if names, ok := detrangeEmitters[pkg]; ok && names[name] {
					pass.Reportf(call.Pos(),
						"%s.%s emits order-sensitive output inside a range over a map: iteration order is "+
							"nondeterministic and breaks byte-identical runs; iterate a sorted key slice instead "+
							"(cf. internal/obs/merge.go)",
						shortPkg(pkg), name)
				}
				return true
			})
			return true
		})
	}
	return nil, nil
}

// emitterOf identifies the defining package and name for a call through
// sel, handling both method calls (o.Instant(...)) and package-qualified
// function calls (obs.Ensure(...)).
func emitterOf(pass *Pass, sel *ast.SelectorExpr) (pkg, name string) {
	if pkg, name = recvPkgPath(pass.TypesInfo, sel); pkg != "" {
		return pkg, name
	}
	if p := pkgNameOf(pass.TypesInfo, sel.X); p != "" {
		return p, sel.Sel.Name
	}
	return "", ""
}

func shortPkg(path string) string {
	for i := len(path) - 1; i >= 0; i-- {
		if path[i] == '/' {
			return path[i+1:]
		}
	}
	return path
}
