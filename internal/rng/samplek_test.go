package rng

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"sort"
	"testing"
)

// sampleGrid spans the (k, n) shapes SampleK meets: empty and full
// draws, tiny ranges, the sensing weights at CR 80 and CR 50, and k
// near n, where rejection and Floyd's fallback fire most.
var sampleGrid = [][2]int{{0, 5}, {1, 1}, {1, 7}, {3, 3}, {5, 10}, {12, 102}, {12, 256}, {20, 21}, {40, 1000}, {100, 128}}

// sampleDigest runs draw eight times per (generator, k, n) and hashes
// every output as little-endian uint32 values.
func sampleDigest(gens int, draw func(g, k, n int) func(dst []int)) string {
	h := sha256.New()
	var b [4]byte
	for g := 0; g < gens; g++ {
		for _, kn := range sampleGrid {
			k, n := kn[0], kn[1]
			next := draw(g, k, n)
			dst := make([]int, k)
			for call := 0; call < 8; call++ {
				next(dst)
				for _, v := range dst {
					binary.LittleEndian.PutUint32(b[:], uint32(v))
					h.Write(b[:])
				}
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestXoshiroSampleKDigest pins Xoshiro.SampleK over seeds 0..5 and
// sampleGrid to the digest of the map-based Floyd implementation.
func TestXoshiroSampleKDigest(t *testing.T) {
	const want = "54a025e76a537520ebf87ede347825d8de109cd5693e6916e908993963ebb32a"
	got := sampleDigest(6, func(g, k, n int) func([]int) {
		x := New(uint64(g))
		return func(dst []int) { x.SampleK(dst, k, n) }
	})
	if got != want {
		t.Fatalf("digest %s, want %s", got, want)
	}
}

// TestLCG16SampleKDigest pins LCG16.SampleK over four seeds and
// sampleGrid to the digest of the map-based rejection implementation.
func TestLCG16SampleKDigest(t *testing.T) {
	const want = "6d03741e996a35f9fd704fe4be5ad4e2fcf32377a183ec4ed3903ac1311cf74e"
	seeds := []uint16{0, 1, 0x5EED, 0xFFFF}
	got := sampleDigest(len(seeds), func(g, k, n int) func([]int) {
		x := NewLCG16(seeds[g])
		return func(dst []int) { x.SampleK(dst, k, n) }
	})
	if got != want {
		t.Fatalf("digest %s, want %s", got, want)
	}
}

// lcgSampleKMap is the map-based rejection loop LCG16.SampleK replaced.
func lcgSampleKMap(g *LCG16, dst []int, k, n int) {
	seen := make(map[int]struct{}, k)
	for i := 0; i < k; {
		v := g.Intn(n)
		if _, dup := seen[v]; dup {
			continue
		}
		seen[v] = struct{}{}
		dst[i] = v
		i++
	}
	sort.Ints(dst[:k])
}

// TestLCG16SampleKMatchesMap checks the first supports of one 16-bit
// seed in 13 (one in 97 under -short) at the sensing shapes against the
// map-based loop, state included: the scan must make the same
// accept/reject decision on every draw.
func TestLCG16SampleKMatchesMap(t *testing.T) {
	step := 13
	if testing.Short() {
		step = 97
	}
	got, want := make([]int, 12), make([]int, 12)
	for seed := 0; seed < 1<<16; seed += step {
		for _, m := range []int{12, 13, 51, 102, 256, 512} {
			a, b := NewLCG16(uint16(seed)), NewLCG16(uint16(seed))
			for col := 0; col < 4; col++ {
				a.SampleK(got, 12, m)
				lcgSampleKMap(b, want, 12, m)
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("seed %#x M=%d column %d: %v, want %v", seed, m, col, got, want)
					}
				}
			}
			if a.State() != b.State() {
				t.Fatalf("seed %#x M=%d: state %#x, want %#x", seed, m, a.State(), b.State())
			}
		}
	}
}

func TestSampleKPanicsOnShortDst(t *testing.T) {
	for _, c := range []struct {
		name string
		draw func()
	}{
		{"Xoshiro", func() { New(1).SampleK(make([]int, 2, 8), 3, 10) }},
		{"LCG16", func() { NewLCG16(1).SampleK(make([]int, 2, 8), 3, 10) }},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s.SampleK with len(dst) < k did not panic", c.name)
				}
			}()
			c.draw()
		}()
	}
}
