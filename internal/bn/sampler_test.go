package bn_test

import (
	"testing"

	"distbayes/internal/bn"
	"distbayes/internal/netgen"
)

// TestSamplerMatchesOracleOnBundledNetworks: on every bundled network the
// compiled sampler reproduces the historical loop (model_test.go) draw for
// draw — values, parent indices and final generator state.
func TestSamplerMatchesOracleOnBundledNetworks(t *testing.T) {
	for _, name := range netgen.Names() {
		m, err := netgen.ModelByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for seed := uint64(1); seed <= 3; seed++ {
			bn.CheckSamplerMatchesOracle(t, m, seed, 300)
		}
	}
}

// BenchmarkSample measures one forward-sampled event (ns/op is ns/event) on
// the smallest and the largest bundled network; a warm Sample must not
// allocate.
func BenchmarkSample(b *testing.B) {
	for _, name := range []string{"alarm", "munin"} {
		m, err := netgen.ModelByName(name)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			s, x := m.NewSampler(1), make([]int, m.Network().Len())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Sample(x)
			}
		})
	}
}
