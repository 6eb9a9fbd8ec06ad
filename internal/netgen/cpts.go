package netgen

import (
	"fmt"

	"distbayes/internal/bn"
)

// CPTOptions controls ground-truth parameter generation.
type CPTOptions struct {
	// Alpha is the symmetric Dirichlet concentration of each CPT row; 1 is
	// uniform over the simplex, smaller is spikier.
	Alpha float64
	// Floor mixes in a uniform component so every entry is at least
	// Floor/J_i, keeping the λ of Lemma 3 bounded away from zero and test
	// events observable.
	Floor float64
	// Seed drives the draw.
	Seed uint64
}

// DefaultCPTOptions mirrors the character of the real repository networks:
// medical/genetic CPDs are strongly skewed (many near-deterministic rows), so
// rows are drawn from Dirichlet(0.3) with a 2% uniform floor. The skew
// matters for communication: it concentrates counter traffic on hot cells,
// which is what lets the approximate counters enter their sampling regime.
func DefaultCPTOptions() CPTOptions { return CPTOptions{Alpha: 0.3, Floor: 0.02, Seed: 0xC0DE} }

// GenCPTs samples ground-truth parameters for net.
func GenCPTs(net *bn.Network, opt CPTOptions) ([]*bn.CPT, error) {
	if opt.Alpha <= 0 {
		return nil, fmt.Errorf("netgen: alpha %v, want > 0", opt.Alpha)
	}
	if opt.Floor < 0 || opt.Floor >= 1 {
		return nil, fmt.Errorf("netgen: floor %v, want [0,1)", opt.Floor)
	}
	rng := bn.NewRNG(opt.Seed)
	cpds := make([]*bn.CPT, net.Len())
	for i := 0; i < net.Len(); i++ {
		j, k := net.Card(i), net.ParentCard(i)
		tbl := make([]float64, j*k)
		for kk := 0; kk < k; kk++ {
			row := tbl[kk*j : (kk+1)*j]
			rng.Dirichlet(opt.Alpha, row)
			if opt.Floor > 0 {
				u := opt.Floor / float64(j)
				for v := range row {
					row[v] = (1-opt.Floor)*row[v] + u
				}
			}
		}
		var err error
		cpds[i], err = bn.NewCPT(j, k, tbl)
		if err != nil {
			return nil, fmt.Errorf("netgen: CPT %d: %w", i, err)
		}
	}
	return cpds, nil
}
