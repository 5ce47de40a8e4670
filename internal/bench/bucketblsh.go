package bench

import (
	"math/rand"
	"slices"

	"lemp/internal/core"
	"lemp/internal/lsh"
)

// blshGen prunes with BayesLSH-Lite (LEMP-BLSH, §6.3): of the bucket's
// length-qualified prefix (LENGTH's candidates) a vector survives only if
// its signature agrees with the query's in at least MinMatches(θ_b) bits,
// the smallest count at which the posterior P(cos ≥ θ_b | matches) reaches
// ε. One 32-bit signature and ε = 0.03, the paper's settings, hyperplanes
// drawn from the index's Options.Seed. The one approximate variant: each
// true result escapes with probability ≤ ε.
type blshGen struct {
	hasher *lsh.Hasher
	table  *lsh.Table
	sigs   perBucket[[]uint64]
}

const blshBits = 32

func newBLSHGen(ix *core.Index) *blshGen {
	rng := rand.New(rand.NewSource(ix.Options().Seed))
	return &blshGen{hasher: lsh.NewHasher(ix.R(), blshBits, rng), table: lsh.NewTable(blshBits, 0.03)}
}

func (g *blshGen) Worker() core.GenFunc {
	var qsig []uint64 // by core.Pair.QI, hashed once per query per call
	var have []bool
	return func(b core.Bucket, q core.Pair, cand []int32) ([]int32, int) {
		if n := int(q.QI) + 1; n > len(have) {
			qsig, have = slices.Grow(qsig, n)[:n], slices.Grow(have, n)[:n]
		}
		if !have[q.QI] {
			qsig[q.QI], have[q.QI] = g.hasher.Signature(q.Dir), true
		}
		sigs, need := g.sigs.get(b, g.sign), g.table.MinMatches(q.ThetaB)
		for lid := range b.LengthPrefix(q.Theta / q.Len) {
			if lsh.Matches(qsig[q.QI], sigs[lid], blshBits) >= need {
				cand = append(cand, int32(lid))
			}
		}
		return cand, 0
	}
}

func (g *blshGen) sign(b core.Bucket) []uint64 {
	sigs := make([]uint64, b.Size())
	for lid := range sigs {
		sigs[lid] = g.hasher.Signature(b.Dir(lid))
	}
	return sigs
}
