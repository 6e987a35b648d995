// Package cpufeat detects, once at start-up, the instruction-set
// extensions the decoder's assembly kernels need. It has no options:
// the kernels in internal/wavelet and internal/sensing run whenever the
// CPU and operating system support them, and the portable Go kernels
// run otherwise.
package cpufeat

// HasAVX2 reports whether the CPU implements AVX2 and the operating
// system saves the YMM registers across context switches. It is false
// on every architecture but amd64.
var HasAVX2 = hasAVX2()
