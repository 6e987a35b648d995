// Package cpufeat detects, once at start-up, the instruction-set
// extensions the decoder's assembly kernels need. It has no options:
// the kernels in internal/wavelet, internal/sensing and internal/solver
// run whenever the CPU and operating system support them, and the
// portable Go kernels run otherwise.
package cpufeat

// HasAVX2 reports whether the CPU implements AVX2 and the operating
// system saves the YMM registers across context switches. It is false
// on every architecture but amd64. It is read when a transform, an
// operator or a solver run is set up, never per call, so tests clear
// it to build a decoder on the portable Go kernels.
var HasAVX2 = hasAVX2()
