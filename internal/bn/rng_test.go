package bn

import (
	"fmt"
	"testing"
)

// oracleRNG is the historical xoshiro256** step, written as the reference
// publishes it (rotl over the state in place), kept as the oracle the
// inlinable RNG.Uint64 must match draw for draw.
type oracleRNG struct{ s [4]uint64 }

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

func (r *oracleRNG) Uint64() uint64 {
	s := &r.s
	result := rotl(s[1]*5, 7) * 9
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = rotl(s[3], 45)
	return result
}

func (r *oracleRNG) Float64() float64 { return float64(r.Uint64()>>11) / (1 << 53) }

// TestRNGMatchesOracle: for several seeds, and for a generator restored with
// SetState mid-sequence, a million Uint64 and Float64 draws and the state
// after each equal the oracle's.
func TestRNGMatchesOracle(t *testing.T) {
	const draws = 1_000_000
	check := func(name string, r *RNG) {
		t.Helper()
		o := &oracleRNG{s: r.State()}
		for i := 0; i < draws; i++ {
			if i%2 == 0 {
				if got, want := r.Uint64(), o.Uint64(); got != want {
					t.Fatalf("%s: draw %d: Uint64 = %#x, oracle %#x", name, i, got, want)
				}
			} else if got, want := r.Float64(), o.Float64(); got != want {
				t.Fatalf("%s: draw %d: Float64 = %v, oracle %v", name, i, got, want)
			}
			if r.State() != o.s {
				t.Fatalf("%s: state after draw %d = %x, oracle %x", name, i, r.State(), o.s)
			}
		}
	}
	for _, seed := range []uint64{0, 1, 42, 1 << 63, ^uint64(0)} {
		check(fmt.Sprintf("seed %d", seed), NewRNG(seed))
	}
	mid := NewRNG(7)
	for i := 0; i < 12345; i++ {
		mid.Uint64()
	}
	restored := &RNG{}
	restored.SetState(mid.State())
	check("restored", restored)
}

var rngSink uint64

func BenchmarkRNG(b *testing.B) {
	b.Run("Uint64", func(b *testing.B) {
		r, x := NewRNG(1), uint64(0)
		for i := 0; i < b.N; i++ {
			x ^= r.Uint64()
		}
		rngSink = x
	})
	b.Run("Float64", func(b *testing.B) {
		r, x := NewRNG(1), 0.0
		for i := 0; i < b.N; i++ {
			x += r.Float64()
		}
		rngSink = uint64(x)
	})
}
