package wavelet

// analyzeAVX2 computes blocks×8 outputs of one analysis split from the
// polyphase halves: for each output k,
// a[k] = Σ_{i<taps/2} lo[2i]·xe[k+i] + lo[2i+1]·xo[k+i], taps ascending,
// and d[k] likewise with the high-pass filter hi.
//
//go:noescape
func analyzeAVX2(a, d, xe, xo, lo, hi *float32, blocks, taps int)

// synthesizeAVX2 computes blocks×8 interior output pairs of one
// synthesis split: for pair j of the run, with a and d pointing at the
// first coefficient pair that reaches pair 0,
// dst[2j] = Σ_{i<kk} (he[i]·a[j+i] + ge[i]·d[j+i]), i ascending, and
// dst[2j+1] likewise with ho and gOdd.
//
//go:noescape
func synthesizeAVX2(dst, a, d, he, ho, ge, gOdd *float32, blocks, kk int)

// splitAVX2 writes the even entries of src[:16·blocks] to xe and the odd
// ones to xo.
//
//go:noescape
func splitAVX2(xe, xo, src *float32, blocks int)
