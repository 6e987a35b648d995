//csecg:host the decoder's float32 Φ and Φᵀ kernels; the mote never runs them

package sensing

// phiAVX2 computes groups×8 rows of Φx: for row group g and lane l,
// dst[8g+l] = Σ_j x[idx[j·8+l]]·scale over the group's lens[g] entries,
// j ascending, with entries whose index is −1 contributing +0. idx
// advances by lens[g]·8 entries per group.
//
//go:noescape
func phiAVX2(dst, x *float32, idx, lens *int32, groups int, scale float32)

// phiTAVX2 computes blocks×8 columns of Φᵀy: for block b and lane l,
// dst[8b+l] = (Σ_{j<d} y[idx[(b·d+j)·8+l]])·scale, j ascending.
//
//go:noescape
func phiTAVX2(dst, y *float32, idx *int32, blocks, d int, scale float32)
