package ecg

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"csecg/internal/dsp"
)

// adcDigest is the SHA-256 of x as little-endian int16 samples.
func adcDigest(x []int16) string {
	buf := make([]byte, 2*len(x))
	for i, v := range x {
		binary.LittleEndian.PutUint16(buf[2*i:], uint16(v))
	}
	s := sha256.Sum256(buf)
	return hex.EncodeToString(s[:])
}

// TestChannel256Digests pins 60 s of both leads of four records, the
// clean, ectopic, AF and PVC-dense extremes of the set, to digests of
// the two-lead renderer that resampled with a per-tap divide. Any change
// to a synthesized or resampled sample fails it.
func TestChannel256Digests(t *testing.T) {
	want := map[string][2]string{
		"100": {"bafe7560227c93425369702459e35b311cf4bdc480f8970ab9be46d702cf4aca", "88395c4e5897714f3bda97e7bad2cd168057561e873b926fea9cdc91092b4589"},
		"106": {"bf45fce28c6323fb61ce6f797d54e370fd6844b40c846bebf83ca4e601119615", "7faa03cb504e6526b5139d4f70871fb1b5db7ef57a388f9f60fe43ca9b6a3c0a"},
		"202": {"81fb283cc739b336f3babccc024da81e962a3463b9f93d6a6d1ea39c402c87a5", "f66e5385afb6282829010dbd57db88ad6292d4a20b49d7d468c0cbf55b1e03c4"},
		"208": {"453348f81bad227375f594bb823e885363ae58d14b0cc751aef3eb928005bd49", "7901b317de2af51f5f288c2dd4e077bde2f6ac4172f76e813916952e1f7f20d8"},
	}
	for _, id := range []string{"100", "106", "202", "208"} {
		r, err := RecordByID(id)
		if err != nil {
			t.Fatal(err)
		}
		for ch := 0; ch < 2; ch++ {
			x, err := r.Channel256(60, ch)
			if err != nil {
				t.Fatal(err)
			}
			if len(x) != 15360 {
				t.Fatalf("record %s lead %d: %d samples, want 15360", id, ch, len(x))
			}
			if got := adcDigest(x); got != want[id][ch] {
				t.Errorf("record %s lead %d: digest %s, want %s", id, ch, got, want[id][ch])
			}
		}
	}
}

// TestChannel256MatchesSynthesize checks the one-lead render against the
// two-lead one on every record and both leads, AF records included:
// skipping a lead must leave the other lead's RNG stream untouched.
func TestChannel256MatchesSynthesize(t *testing.T) {
	seconds := 40.0
	if testing.Short() {
		seconds = 10
	}
	for _, r := range Database() {
		sig, err := r.Synthesize(seconds)
		if err != nil {
			t.Fatal(err)
		}
		for ch := 0; ch < 2; ch++ {
			want := Digitize(dsp.Resample360To256(sig.MV[ch]))
			got, err := r.Channel256(seconds, ch)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("record %s lead %d: %d samples, want %d", r.ID, ch, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("record %s lead %d: sample %d = %d, want %d", r.ID, ch, i, got[i], want[i])
				}
			}
		}
	}
}

func BenchmarkChannel256StreamSession(b *testing.B) {
	// 320 s is the record length of a stream_cr50 perfbench session.
	r, _ := RecordByID("100")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := r.Channel256(320, 0); err != nil {
			b.Fatal(err)
		}
	}
}
