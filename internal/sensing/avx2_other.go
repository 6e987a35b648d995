//csecg:host the decoder's float32 Φ and Φᵀ kernels; the mote never runs them

//go:build !amd64

package sensing

// The AVX2 kernels exist only on amd64; elsewhere cpufeat.HasAVX2 is false and
// Op never selects them.

func phiAVX2(dst, x *float32, idx, lens *int32, groups int, scale float32) {
	panic("sensing: AVX2 kernel on a non-amd64 build")
}

func phiTAVX2(dst, y *float32, idx *int32, blocks, d int, scale float32) {
	panic("sensing: AVX2 kernel on a non-amd64 build")
}
