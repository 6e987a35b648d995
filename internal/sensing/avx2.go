//csecg:host the decoder's float32 Φ and Φᵀ kernels; the mote never runs them

package sensing

import (
	"slices"

	"csecg/internal/cpufeat"
	"csecg/internal/linalg"
)

// lanes is the AVX2 vector width in float32 lanes.
const lanes = 8

// avx2Op is the AVX2 form of the float32 operator Φ. Both kernels
// gather eight independent outputs per step with VGATHERDPS, and every
// lane adds its terms in the order of the Go kernels with separate
// multiplies and adds (no FMA), so the results are bit-identical:
//
//   - Φᵀ sums each column's d rows in ascending row order. colIdx holds,
//     for each block of eight columns, the d row indices of each column
//     interleaved lane by lane: colIdx[(b·d+j)·8+l] is row j of column
//     8b+l.
//   - Φ gathers each row over its columns in ascending order, the order
//     in which the Go column scatter adds into it. rowIdx holds each
//     group of eight rows interleaved the same way, padded with −1 to
//     the group's longest row; padded lanes gather +0. Adding +0 leaves
//     an accumulator unchanged, because an accumulator that starts at
//     +0 can never become −0, and it mirrors the scatter's skip of
//     zero products.
//
// When N or M is not a multiple of eight, one extra block (group)
// covers the last eight columns (rows) and rewrites the outputs it
// shares with its predecessor with identical values. The tables are
// built once and only read afterwards, so the operator is safe for
// concurrent use.
type avx2Op struct {
	s      *SparseBinary
	scale  float32
	colIdx []int32
	rowIdx []int32
	// rowLen is the padded length of each row group of rowIdx, and
	// lastGroup the offset in rowIdx of the overlapping group, if any.
	rowLen    []int32
	lastGroup int
}

// opAVX2 returns the AVX2 operator when T is float32, the CPU supports
// AVX2 and Φ has at least eight rows and columns.
func opAVX2[T linalg.Float](s *SparseBinary) (linalg.Op[T], bool) {
	var zero T
	if _, f32 := any(zero).(float32); !f32 || !cpufeat.HasAVX2 || s.m < lanes || s.n < lanes {
		return linalg.Op[T]{}, false
	}
	op, ok := any(newAVX2Op(s).op()).(linalg.Op[T])
	return op, ok
}

func newAVX2Op(s *SparseBinary) *avx2Op {
	d := s.d
	cols, rows := blockStarts(s.n), blockStarts(s.m)
	k := &avx2Op{s: s, scale: float32(s.scale), rowLen: make([]int32, len(rows))}
	// Row r's entries are the columns whose support holds r; scanning
	// the columns in ascending order lists each row in ascending order.
	count := make([]int32, s.m) // entries per row, later the fill cursor
	for _, r := range s.support {
		count[r]++
	}
	groupOff := make([]int, len(rows)+1)
	for g, r0 := range rows {
		k.rowLen[g] = slices.Max(count[r0 : r0+lanes])
		groupOff[g+1] = groupOff[g] + int(k.rowLen[g])*lanes
	}
	// Both tables share one allocation. A spare padded entry keeps
	// &rowIdx[lastGroup] addressable when the trailing groups have no
	// entries at all.
	colLen := len(cols) * d * lanes
	idx := make([]int32, colLen+groupOff[len(rows)]+1)
	k.colIdx, k.rowIdx = idx[:colLen], idx[colLen:]
	for b, c0 := range cols {
		for j := 0; j < d; j++ {
			for l := 0; l < lanes; l++ {
				k.colIdx[(b*d+j)*lanes+l] = s.support[(c0+l)*d+j]
			}
		}
	}
	for i := range k.rowIdx {
		k.rowIdx[i] = -1
	}
	k.lastGroup = groupOff[len(rows)-1]
	full := s.m / lanes
	clear(count)
	for c := 0; c < s.n; c++ {
		for _, r := range s.Support(c) {
			j := int(count[r])
			count[r]++
			if g := int(r) / lanes; g < full {
				k.rowIdx[groupOff[g]+j*lanes+int(r)%lanes] = int32(c) //csecg:rangeok c < N, and validateShape keeps N ≪ 2³¹
			}
			if g := len(rows) - 1; g >= full {
				if l := int(r) - (s.m - lanes); l >= 0 {
					k.rowIdx[groupOff[g]+j*lanes+l] = int32(c) //csecg:rangeok c < N, and validateShape keeps N ≪ 2³¹
				}
			}
		}
	}
	return k
}

// blockStarts lists the first index of each eight-wide block over n ≥ 8
// outputs: the whole blocks, then one block ending at n if n is not a
// multiple of eight.
func blockStarts(n int) []int {
	var starts []int
	for i := 0; i+lanes <= n; i += lanes {
		starts = append(starts, i)
	}
	if n%lanes != 0 {
		starts = append(starts, n-lanes)
	}
	return starts
}

func (k *avx2Op) op() linalg.Op[float32] {
	m, n := k.s.m, k.s.n
	return linalg.Op[float32]{
		InDim:  n,
		OutDim: m,
		Apply: func(dst, x []float32) {
			if len(dst) != m || len(x) != n {
				panic("sensing: Op.Apply dimension mismatch")
			}
			k.apply(dst, x)
		},
		ApplyT: func(dst, y []float32) {
			if len(dst) != n || len(y) != m {
				panic("sensing: Op.ApplyT dimension mismatch")
			}
			k.applyT(dst, y)
		},
	}
}

// apply computes dst = Φx as a row gather.
//
//csecg:hotpath Φ runs once per FISTA iteration
func (k *avx2Op) apply(dst, x []float32) {
	full := k.s.m / lanes
	phiAVX2(&dst[0], &x[0], &k.rowIdx[0], &k.rowLen[0], full, k.scale)
	if k.s.m%lanes != 0 {
		phiAVX2(&dst[k.s.m-lanes], &x[0], &k.rowIdx[k.lastGroup], &k.rowLen[full], 1, k.scale)
	}
}

// applyT computes dst = Φᵀy as a column gather.
//
//csecg:hotpath Φᵀ runs once per FISTA iteration
func (k *avx2Op) applyT(dst, y []float32) {
	full, d := k.s.n/lanes, k.s.d
	phiTAVX2(&dst[0], &y[0], &k.colIdx[0], full, d, k.scale)
	if k.s.n%lanes != 0 {
		phiTAVX2(&dst[k.s.n-lanes], &y[0], &k.colIdx[full*d*lanes], 1, d, k.scale)
	}
}
