package sim

import "iter"

// coroutine is approved: this file is named proc.go under internal/sim/,
// the kernel's proc coroutine surface.
func coroutine(seq iter.Seq[int]) (func() (int, bool), func()) {
	return iter.Pull(seq)
}
