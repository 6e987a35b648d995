// Package asmstubtest is an assembly-backed device package, the shape
// of internal/sensing and internal/wavelet: sum8 and sumEscaping have
// amd64 kernels (kern_amd64.s) behind bodyless stubs (kern_amd64.go)
// and portable Go fallbacks elsewhere (kern_other.go). Every analyzer
// must load it — the stub and its fallback never type-check together —
// and tolerate the stubs' nil bodies.
package asmstubtest

import "sync"

var mu sync.Mutex

// Sum hands a stack buffer to a //go:noescape stub: the buffer stays
// on the stack, and the stub is an allocation-free leaf.
//
//csecg:hotpath
func Sum(xs []int32) int32 {
	var tmp [8]int32
	copy(tmp[:], xs)
	return sum8(&tmp[0])
}

// Leaky hands a stack buffer to a stub without //go:noescape, so the
// compiler moves the buffer to the heap.
//
//csecg:hotpath
func Leaky(xs []int32) int32 {
	var tmp [8]int32
	copy(tmp[:], xs)
	return sumEscaping(&tmp[0]) // want "hotpath .*Leaky reaches an allocation: .*Leaky → .*sumEscaping — assembly stub without //go:noescape"
}

// Locked calls a stub with a mutex held: a stub never blocks.
func Locked(xs *[8]int32) int32 {
	mu.Lock()
	defer mu.Unlock()
	return sum8(&xs[0])
}
