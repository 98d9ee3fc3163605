// Package analysis implements nectar-vet: a suite of static analyzers
// that mechanically enforce the repo's determinism and hot-path
// invariants. The headline guarantees — byte-identical sharded vs.
// sequential runs, zero-alloc fast paths, and virtual-time-only
// scheduling faithful to the CAB's explicit cost model — were previously
// enforced only by tests that happened to exercise the offending code;
// one stray time.Now, an unsorted map iteration into a trace, or a raw
// go statement silently breaks reproducibility of Figures 6–8. These
// analyzers turn the conventions into checked rules.
//
// The twelve analyzers are:
//
//	walltime   — no wall-clock time (time.Now/Sleep/...) in deterministic
//	             packages; //nectar:allow-walltime <reason> escapes
//	             measurement code.
//	detrange   — no trace/metric/capture/outbox emission inside a range
//	             over a map (iteration order is nondeterministic).
//	seededrand — no global math/rand state in deterministic packages;
//	             randomness must flow from an injected *rand.Rand.
//	rawgo      — no go statements outside the approved concurrency
//	             surfaces (the PDES scheduler, the parallel sweep pool,
//	             and the kernel's Proc coroutine launcher).
//	hotpath    — functions annotated //nectar:hotpath must avoid obvious
//	             allocation sources (Sprintf/Tracef, unsized append,
//	             value-to-interface conversion, capturing closures).
//	hotprop    — interprocedural extension of hotpath: every function
//	             reachable from a //nectar:hotpath root through the call
//	             graph (callgraph.go) must satisfy the same rules or
//	             carry //nectar:hotpath-exempt <reason>; diagnostics
//	             print the offending call chain.
//	shardsafe  — static race detector for the PDES coupling model:
//	             state annotated //nectar:shard-owned may only be reached
//	             through a receiver/parameter ownership chain; audited
//	             cross-domain surfaces carry //nectar:shard-boundary.
//	unitsafe   — virtual-time unit hygiene in deterministic packages: no
//	             time.Duration<->sim unit conversions, no raw numeric
//	             literals where sim.Duration/sim.Time is expected, and no
//	             unit-dropping numeric casts outside package sim.
//	obsgate    — zero-cost observability, proven by dataflow (cfg.go,
//	             dataflow.go): every obs trace/capture emission whose
//	             arguments allocate or format must be dominated by the
//	             matching enabled-guard branch, including allocations
//	             escaping through locals; metric emissions must not take
//	             allocating arguments at all.
//	costmodel  — latency-model soundness, proven on the call graph: every
//	             path from protocol/datalink code to a fiber/VME transmit
//	             must charge a model.CostModel latency before the
//	             transmit; //nectar:free-hop <reason> waives audited pure
//	             forwarding steps.
//	detfail    — failure-path determinism: deterministic packages fail
//	             through Kernel.Fatalf or sim.Panicf, never os.Exit, the
//	             global log package, or ad-hoc panic(fmt.Sprintf(...));
//	             //nectar:diag-helper <reason> marks the sanctioned
//	             diagnostic surfaces.
//	poollife   — pooled-object lifecycle proofs, via the backward
//	             dataflow solver (backward.go): every value acquired from
//	             a pool surface (FreeList.Get, fiber.Pool frames/packets,
//	             cab receive descriptors, ip header/span buffers, sim
//	             timers) must reach a release or an explicit ownership
//	             transfer on every path; flags leaks, discarded acquires,
//	             double-releases, and use-after-release.
//	             //nectar:takes-ownership <param> <reason> moves the
//	             obligation into a callee; //nectar:leak-ok <reason>
//	             waives a deliberate sink.
//
// The types below mirror the golang.org/x/tools/go/analysis API
// (Analyzer, Pass, Diagnostic) so the analyzers read idiomatically and
// could be rehosted on the upstream driver verbatim; the driver itself
// (load.go, vet.go) is implemented on the standard library only, because
// this module deliberately has no external dependencies.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Analyzer describes one static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and CLI flags.
	Name string
	// Doc is a one-paragraph description of what the analyzer checks.
	Doc string
	// Run applies the analyzer to one package, reporting findings via
	// pass.Report. The returned value is unused (kept for API parity
	// with golang.org/x/tools/go/analysis).
	Run func(*Pass) (any, error)
}

// Pass provides one analyzer with the parsed, type-checked syntax of one
// package, plus the Report sink for diagnostics.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	// PkgPath is the package's import path as the build system names it
	// (go list / vet config). For test variants ("pkg [pkg.test]") it is
	// canonicalized to the plain import path.
	PkgPath   string
	Pkg       *types.Package
	TypesInfo *types.Info
	Report    func(Diagnostic)
	// Program supplies whole-program context (call graph, cross-package
	// facts) to the interprocedural analyzers. It is nil under drivers
	// that only see one package at a time (go vet units, analysistest);
	// those analyzers then degrade to a single-package view built from
	// this pass.
	Program *Program
}

// Diagnostic is one finding at a source position.
type Diagnostic struct {
	Pos      token.Pos
	Message  string
	Analyzer string // filled by the driver
	// Chain is the offending call chain for interprocedural findings
	// (hotprop), from the annotated root to the function containing Pos.
	// Empty for intraprocedural findings.
	Chain []string
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// IsTestFile reports whether pos lies in a _test.go file. The determinism
// analyzers exempt test files: tests measure wall clock, seed their own
// RNGs, and spawn goroutines under the race detector on purpose.
func (p *Pass) IsTestFile(pos token.Pos) bool {
	return strings.HasSuffix(p.Fset.Position(pos).Filename, "_test.go")
}

// canonicalPkgPath strips the test-variant suffix go list uses for
// packages recompiled with their test files ("pkg [pkg.test]" -> "pkg").
func canonicalPkgPath(path string) string {
	if i := strings.IndexByte(path, ' '); i >= 0 {
		return path[:i]
	}
	return path
}

// pkgNameOf resolves an identifier used as a package qualifier, returning
// the imported package's path ("" when expr is not a package name).
func pkgNameOf(info *types.Info, expr ast.Expr) string {
	id, ok := expr.(*ast.Ident)
	if !ok {
		return ""
	}
	if pn, ok := info.Uses[id].(*types.PkgName); ok {
		return pn.Imported().Path()
	}
	return ""
}

// recvPkgPath returns the defining package path and method name for a
// method call selector, or ("", "") when sel is not a method selection.
func recvPkgPath(info *types.Info, sel *ast.SelectorExpr) (pkg, name string) {
	s, ok := info.Selections[sel]
	if !ok {
		return "", ""
	}
	obj := s.Obj()
	if obj == nil || obj.Pkg() == nil {
		return "", ""
	}
	return obj.Pkg().Path(), obj.Name()
}

// All returns the full nectar-vet analyzer suite in reporting order: the
// five intraprocedural analyzers from the original suite, the
// interprocedural ones built on the call graph (hotprop, shardsafe,
// costmodel), the unit-safety checker (unitsafe), the dataflow-based
// observability and failure-path checkers (obsgate, detfail), and the
// backward-dataflow lifecycle checker (poollife).
func All() []*Analyzer {
	return []*Analyzer{Walltime, Detrange, Seededrand, Rawgo, Hotpath, Hotprop, Shardsafe, Unitsafe, Obsgate, Costmodel, Detfail, Poollife}
}
