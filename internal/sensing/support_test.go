package sensing

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"
)

// supportDigest is the SHA-256 of every column support of s, in column
// order, as little-endian uint32 row indices.
func supportDigest(s *SparseBinary) string {
	h := sha256.New()
	var b [4]byte
	_, n := s.Dims()
	for c := 0; c < n; c++ {
		for _, r := range s.Support(c) {
			binary.LittleEndian.PutUint32(b[:], uint32(r))
			h.Write(b[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestSparseBinaryLCGSupportDigests pins the mote's supports at CR 50
// (M = 256) and CR 80 (M = 102) for three seeds to digests of the
// map-based LCG16.SampleK. The mote and the decoder must keep deriving
// the same matrix from a 2-byte seed.
func TestSparseBinaryLCGSupportDigests(t *testing.T) {
	cases := []struct {
		m    int
		seed uint16
		want string
	}{
		{256, 0x0000, "5773101044f5158d31ef535cf9dd582d671a1dcd813496ec9aeb5576292a56eb"},
		{256, 0x5EED, "a9d56e1c188871727ce46db58544f1b251c512fceae63b7e5ec4777a8536e840"},
		{256, 0xFFFF, "559b947decbbcb8a3a1e92b4dd8da452760023fbf040c917a4027031b71146eb"},
		{102, 0x0000, "af372c6a9dd4ca27f9f0b267bba87d53c39508e1aa7b8e943cc6e75cd55acddb"},
		{102, 0x5EED, "a64488de9f8826c3da2423ae8fa16f1b7100a77605e7cc6a145b7926c4d0cffb"},
		{102, 0xFFFF, "f2e662b0ee4d04cd97b28b409d88ff6aee33cf01c505b44c3fd7bdec8d64516a"},
	}
	for _, c := range cases {
		s, err := NewSparseBinaryLCG(c.m, 512, 12, c.seed)
		if err != nil {
			t.Fatal(err)
		}
		if got := supportDigest(s); got != c.want {
			t.Errorf("M=%d seed=%#x: digest %s, want %s", c.m, c.seed, got, c.want)
		}
	}
}

func BenchmarkNewSparseBinaryLCG(b *testing.B) {
	// One CR 50 session matrix: 512 columns of weight 12 over 256 rows.
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := NewSparseBinaryLCG(256, 512, 12, 0x5EED); err != nil {
			b.Fatal(err)
		}
	}
}
