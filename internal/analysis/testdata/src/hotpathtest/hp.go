// Package hotpathtest exercises the hotpath analyzer: only functions
// annotated //nectar:hotpath are audited.
package hotpathtest

import "fmt"

// format builds a string per call.
//
//nectar:hotpath
func format(n int) string {
	return fmt.Sprintf("n=%d", n) // want `fmt\.Sprintf allocates its variadic args`
}

type tracer struct{}

func (tracer) Tracef(format string, args ...any) {}
func (tracer) Trace(name string)                 {}

// tracef pays for the args slice even when tracing is off.
//
//nectar:hotpath
func tracef(t tracer, n int) {
	t.Tracef("ev %d", n) // want `Tracef builds its variadic args even when tracing is off`
}

// grow appends to a local declared without capacity.
//
//nectar:hotpath
func grow(n int) []int {
	var s []int
	for i := 0; i < n; i++ {
		s = append(s, i) // want `append grows local "s" declared without capacity`
	}
	return s
}

// growLit starts from a fresh composite literal every call.
//
//nectar:hotpath
func growLit(n int) []int {
	s := []int{}
	for i := 0; i < n; i++ {
		s = append(s, i) // want `append grows local "s"`
	}
	return s
}

func sink(v any) {}

// box converts a concrete value to an interface argument.
//
//nectar:hotpath
func box(n int) {
	sink(n) // want `argument converts int to`
}

// boxAssign converts on assignment.
//
//nectar:hotpath
func boxAssign(n int) {
	var v any
	v = n // want `assignment converts int to`
	_ = v
}

// capture allocates a closure over n.
//
//nectar:hotpath
func capture(n int) func() int {
	return func() int { return n } // want `closure captures "n"`
}

// label builds a string from a variable part every call.
//
//nectar:hotpath
func label(name string) string {
	return "waiting:" + name // want `string concatenation with a non-constant operand allocates`
}

// chain is one report per concatenation chain, not one per +.
//
//nectar:hotpath
func chain(a, b string) string {
	return a + "/" + b // want `string concatenation with a non-constant operand allocates`
}

// appendTo grows a string with +=.
//
//nectar:hotpath
func appendTo(s, suffix string) string {
	s += suffix // want `string concatenation with a non-constant operand allocates`
	return s
}

const prefix = "wake:"

// constant concatenations fold at compile time; sums of numbers are
// not concatenations.
//
//nectar:hotpath
func folded(n int) (string, int) {
	return prefix + "x" + "y", n + 1
}

// clean is the approved shape: pre-sized locals, caller-owned slices,
// precomputed marks, panic-only formatting.
//
//nectar:hotpath
func clean(t tracer, dst []int, n int) []int {
	if n < 0 {
		panic(fmt.Sprintf("clean: negative n %d", n)) // failure path: exempt
	}
	buf := make([]int, 0, n)
	for i := 0; i < n; i++ {
		buf = append(buf, i)
		dst = append(dst, i)
	}
	t.Trace("clean")
	return buf
}

// unannotated functions may allocate freely.
func unannotated(n int) string {
	return fmt.Sprintf("free %d", n)
}

func misplaced() {
	/* want `//nectar:hotpath must be part of a function declaration's doc comment` */ //nectar:hotpath
	_ = 0
}
