package sim

import "iter"

// iter.Pull and iter.Pull2 run their sequence on a goroutine of its own,
// so outside the approved files they are flagged like a go statement.

func pull(seq iter.Seq[int]) (func() (int, bool), func()) {
	return iter.Pull(seq) // want `iter\.Pull starts a coroutine goroutine outside the approved concurrency surfaces`
}

func pull2(seq iter.Seq2[int, string]) {
	next, stop := iter.Pull2[int, string](seq) // want `iter\.Pull2 starts a coroutine goroutine outside the approved concurrency surfaces`
	defer stop()
	next()
}

// Ranging over a sequence runs it on the caller's goroutine: not flagged.
func drain(seq iter.Seq[int]) (n int) {
	for range seq {
		n++
	}
	return n
}
