// Package core implements the LEMP framework of the paper: bucketization of
// the probe vectors by length (§3), one retrieval executor over the Above-θ
// and Row-Top-k tile kernels (§3.2, §4.5; executor.go, scan.go), the
// bucket-level retrieval algorithms LENGTH, COORD and INCR (§4.1–4.3) and
// sample-based algorithm selection (§4.4). Other candidate generators — the
// TA, cover-tree, L2AP and BayesLSH-Lite baselines of §6.3, which live in
// the paper/ module's harness — plug into the same scan through
// RunOptions.Gen (gen.go).
package core

import (
	"fmt"
	"strings"
)

// Algorithm selects the bucket-level retrieval method, mirroring the
// LEMP-X naming of the paper's experimental study (§6).
type Algorithm int

const (
	// AlgLI mixes LENGTH and INCR via the tuned per-bucket threshold t_b
	// (§4.4) — the paper's overall winner and this library's default.
	AlgLI Algorithm = iota
	// AlgL uses only length-based pruning (§4.1), the int8 screen
	// discarding candidates ahead of exact verification. It has no
	// per-bucket parameters, so nothing under it runs the sample tuner or
	// builds a sorted list.
	AlgL
	// AlgC uses only coordinate-based pruning (§4.2).
	AlgC
	// AlgI uses only incremental pruning (§4.3). Buckets tuned to φ_b = 1
	// fall back to COORD, which computes the same candidates faster
	// (Appendix A).
	AlgI
	// AlgLC mixes LENGTH and COORD via the tuned t_b.
	AlgLC
)

var algorithmNames = map[Algorithm]string{
	AlgLI: "LI",
	AlgL:  "L",
	AlgC:  "C",
	AlgI:  "I",
	AlgLC: "LC",
}

// String returns the paper's LEMP-X suffix for the algorithm.
func (a Algorithm) String() string {
	if s, ok := algorithmNames[a]; ok {
		return s
	}
	return fmt.Sprintf("Algorithm(%d)", int(a))
}

// Algorithms lists all bucket algorithms in a stable presentation order.
func Algorithms() []Algorithm {
	return []Algorithm{AlgL, AlgLI, AlgLC, AlgI, AlgC}
}

// ParseAlgorithm resolves a (case-insensitive) LEMP-X suffix such as "LI"
// or "lc".
func ParseAlgorithm(s string) (Algorithm, error) {
	for a, name := range algorithmNames {
		if strings.EqualFold(s, name) {
			return a, nil
		}
	}
	return 0, fmt.Errorf("core: unknown algorithm %q: the bucket algorithms are L, LI, LC, I and C; the paper's TA, Tree, L2AP and BLSH baselines run only in the paper/ module, under lemp-bench -experiment fig7ab|fig7cf|table5|table6", s)
}

// Valid reports whether a names a known bucket algorithm.
func (a Algorithm) Valid() bool {
	_, ok := algorithmNames[a]
	return ok
}

// needsTB reports whether the algorithm switches between LENGTH and
// coordinate pruning on the tuned threshold t_b.
func (a Algorithm) needsTB() bool { return a == AlgLC || a == AlgLI }

// Options configure an Index. The zero value selects the paper's defaults;
// use it directly or adjust individual fields.
type Options struct {
	// Algorithm is the bucket method (default AlgLI, the paper's best).
	Algorithm Algorithm
	// Phi fixes the number of focus coordinates for COORD/INCR. 0 tunes
	// φ_b per bucket on a query sample (§4.4).
	Phi int
	// MaxPhi bounds the tuning search space (default 5, the paper's
	// "typically in the range of 1–5").
	MaxPhi int
	// CacheBytes is the per-bucket memory budget that keeps a bucket's
	// vectors and index cache-resident (§3.2). Default 2 MiB; negative
	// disables the limit (the cache-oblivious ablation of §6.2).
	CacheBytes int
	// MinBucketSize is the minimum number of vectors per bucket
	// (default 30, as in the paper).
	MinBucketSize int
	// ShrinkFactor starts a new bucket when a vector's length falls below
	// this fraction of the bucket's longest vector (default 0.9).
	ShrinkFactor float64
	// SampleQueries is the tuning sample size (default 30).
	SampleQueries int
	// TuneByCost replaces wall-clock tuning with a deterministic
	// operation-count cost model. Results are identical either way; only
	// the per-bucket algorithm choice can differ.
	TuneByCost bool
	// Parallelism fans the retrieval phase out over this many goroutines
	// (default 1, matching the paper's single-threaded measurements), and
	// with it the per-probe and per-bucket work of a build, a snapshot
	// restore and a compaction: the length sort, the lengths, the bucket
	// layout and the row copy. What they build does not depend on it.
	Parallelism int
	// Quantize makes the int8 screen (internal/quant: a cheap approximate dot
	// of the quantized query and probe rows plus a conservative error bound
	// on fl(qᵀp) that discards verification candidates before the exact f64
	// kernels run) unconditional: every (query, bucket) pair with a candidate
	// under a finite threshold is screened, the portable kernels included.
	// Snapshots record the option (an empty QNT8 section), not the sidecars.
	// Without it an index screens by itself wherever the int8 kernels run in
	// assembly for its dimension (quant.Accelerated): only the pairs that
	// show at least eight candidates under a finite threshold are screened.
	// Either way a bucket's sidecar is built on first screened use — by the
	// first pair the screen covers, or by the tuner before it times the
	// bucket — so a build, a restore, an update or a compaction quantizes
	// nothing, and buckets no retrieval reaches never carry one. Exact
	// results are the same in all three cases — the bound is conservative,
	// so only candidates that provably cannot reach the threshold are
	// skipped, and every survivor is verified in f64. A sidecar quantizes a
	// bucket's raw rows, the index's one f64 copy of its probes, at one step
	// per bucket: r bytes per probe (50 beside the 400 bytes of an r = 50
	// row) and 8 per bucket. On the portable kernels the screen costs more
	// than the exact dot it saves, which is why only this option turns it on
	// there. Dimensions above quant.MaxDim silently disable screening.
	Quantize bool
}

// hasTunableParams reports whether the options' algorithm has per-bucket
// parameters for the sample-based selection of §4.4 to fit.
func (o Options) hasTunableParams() bool {
	return o.Algorithm.needsTB() || o.Algorithm != AlgL && o.Phi == 0
}

// withDefaults returns a copy with zero fields replaced by defaults.
func (o Options) withDefaults() Options {
	if o.Phi < 0 {
		o.Phi = 0
	}
	if o.MaxPhi == 0 {
		o.MaxPhi = 5
	}
	if o.CacheBytes == 0 {
		o.CacheBytes = 2 << 20
	}
	if o.MinBucketSize == 0 {
		o.MinBucketSize = 30
	}
	if o.ShrinkFactor == 0 {
		o.ShrinkFactor = 0.9
	}
	if o.SampleQueries == 0 {
		o.SampleQueries = 30
	}
	if o.Parallelism <= 0 {
		o.Parallelism = 1
	}
	return o
}

// validate rejects out-of-range option values.
func (o Options) validate() error {
	if _, ok := algorithmNames[o.Algorithm]; !ok {
		return fmt.Errorf("core: invalid algorithm %d", int(o.Algorithm))
	}
	if o.ShrinkFactor < 0 || o.ShrinkFactor > 1 {
		return fmt.Errorf("core: ShrinkFactor %v out of [0,1]", o.ShrinkFactor)
	}
	if o.MinBucketSize < 1 {
		return fmt.Errorf("core: MinBucketSize %d must be positive", o.MinBucketSize)
	}
	return nil
}
