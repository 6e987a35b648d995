package solver

// proxAVX2 runs blocks×8 elements of proxStep with the branchy Shrink:
// for each element i, alpha[i] = Shrink(y[i] − step·grad[i], thresh), and
// stripe i mod 8 of each sum in s, which it overwrites, gathers the
// element's proxSums terms in ascending i.
//
//go:noescape
func proxAVX2(s *proxStripes, alpha, prev, y, grad *float32, blocks int, step, thresh float32)

// proxBranchlessAVX2 is proxAVX2 with the if-converted
// ShrinkBranchless.
//
//go:noescape
func proxBranchlessAVX2(s *proxStripes, alpha, prev, y, grad *float32, blocks int, step, thresh float32)

// momentumAVX2 computes blocks×8 elements of the momentum point
// y[i] = alpha[i] + beta·(alpha[i] − prev[i]).
//
//go:noescape
func momentumAVX2(y, alpha, prev *float32, blocks int, beta float32)
