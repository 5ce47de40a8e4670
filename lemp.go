// Package lemp retrieves the large entries of a matrix product QᵀP without
// computing the product, implementing the LEMP algorithm of Teflioudi,
// Gemulla and Mykytiuk ("LEMP: Fast Retrieval of Large Entries in a Matrix
// Product", SIGMOD 2015).
//
// Q (r×m) and P (r×n) are tall-and-skinny factor matrices — typically the
// output of a low-rank factorization — whose columns are query and probe
// vectors; entry (i,j) of QᵀP is the inner product of query i and probe j.
// LEMP solves two problems exactly:
//
//   - Above-θ: all entries with value ≥ θ (the AboveTheta option), and
//   - Row-Top-k: the k largest entries of every row (the TopK option).
//
// It groups probe vectors into cache-sized buckets of similar length,
// prunes whole buckets with a per-query local threshold, and solves a small
// cosine-similarity search problem per surviving bucket with a
// bucket-algorithm selected at run time. See Options for the available
// bucket algorithms (the default, LI, is the paper's overall winner).
//
// A minimal session:
//
//	probe, _ := lemp.MatrixFromVectors(itemFactors)
//	index, _ := lemp.New(probe, lemp.Options{})
//	query, _ := lemp.MatrixFromVectors(userFactors)
//	res, _ := index.Retrieve(ctx, query, lemp.TopK(10))
//	for _, row := range res.TopK { ... }
//
// Retrieve is the context-aware entry point for both problems; per-call
// policy — algorithm, parallelism, tuning reuse, streaming — is selected with
// functional options (TopK, AboveTheta, WithAlgorithm, WithParallelism,
// WithTuningCache, Stream).
package lemp

import (
	"time"

	"lemp/internal/core"
	"lemp/internal/matrix"
	"lemp/internal/retrieval"
)

// Entry is one large entry of QᵀP: Value = (query column Query)ᵀ·(probe
// column Probe). Both problems compute it from the unit directions q̄, p̄
// and the lengths, in two orders: TopK as (q̄ᵀp̄·‖p‖)·‖q‖, AboveTheta as
// (q̄ᵀp̄·‖q‖)·‖p‖. So the same product can differ in its last bit between
// the two; within one problem every entry point returns the same bits.
type Entry = retrieval.Entry

// TopKRows holds a Row-Top-k result: TopKRows[i] lists query i's top
// entries by decreasing value.
type TopKRows = retrieval.TopK

// Stats reports one retrieval call's work: its tuning and retrieval times
// and its pruning counters. Index state — bucket count, lazily built lists,
// the one-time preprocessing time — is not part of it; read it from the
// Index (NumBuckets, Buckets, PrepTime). Stats.Add sums every field, so a
// total over calls is a plain sum.
type Stats = core.Stats

// Options configure an Index; the zero value selects the paper's defaults.
type Options = core.Options

// Algorithm selects the bucket-level retrieval method.
type Algorithm = core.Algorithm

// Bucket algorithms, named as in the paper's LEMP-X variants.
const (
	// AlgorithmLI mixes LENGTH and INCR (default; the paper's winner).
	AlgorithmLI = core.AlgLI
	// AlgorithmL is pure length-based pruning; it never tunes.
	AlgorithmL = core.AlgL
	// AlgorithmC is pure coordinate-based pruning.
	AlgorithmC = core.AlgC
	// AlgorithmI is pure incremental pruning.
	AlgorithmI = core.AlgI
	// AlgorithmLC mixes LENGTH and COORD.
	AlgorithmLC = core.AlgLC
)

// ParseAlgorithm resolves a LEMP-X suffix such as "LI" or "lc". The paper's
// other LEMP-X variants (TA, Tree, L2AP, BLSH) are baselines that only the
// experiment harness runs (lemp-bench, in the paper/ module); naming one is
// an error.
func ParseAlgorithm(s string) (Algorithm, error) { return core.ParseAlgorithm(s) }

// Index is a LEMP index over a probe matrix, ready to answer Above-θ and
// Row-Top-k queries. Build one with New. Any number of Retrieve calls may
// run concurrently on it and on its WithUpdates relatives, WriteSnapshot
// beside them; calls that mutate it (Compact, the Pretune methods) are
// exclusive with everything else on it.
type Index struct {
	inner *core.Index
}

// New preprocesses the probe matrix into a LEMP index (bucketization by
// vector length; per-bucket search indexes are built lazily during
// retrieval). The index copies every probe into its buckets and keeps no
// reference to the matrix: the caller may reuse it at once.
func New(probe *Matrix, opts Options) (*Index, error) {
	inner, err := core.NewIndex(probe, opts)
	if err != nil {
		return nil, err
	}
	return &Index{inner: inner}, nil
}

// N returns the number of indexed probe vectors.
func (ix *Index) N() int { return ix.inner.N() }

// R returns the vector dimension.
func (ix *Index) R() int { return ix.inner.R() }

// NumBuckets returns the number of probe buckets.
func (ix *Index) NumBuckets() int { return ix.inner.NumBuckets() }

// SidecarBytes returns the memory held by the int8 screening sidecars: every
// bucket's under Options.Quantize; otherwise those of the buckets retrievals
// have screened so far, which grows with the buckets queries reach and stays
// 0 where the int8 kernels are not assembly.
func (ix *Index) SidecarBytes() int { return ix.inner.SidecarBytes() }

// ListBytes returns the memory held by the lazily built sorted-list indexes
// of the coordinate methods, 12·r bytes per probe of every bucket that
// carries them: those a tuning pass observed or a retrieval scanned with
// COORD or INCR.
func (ix *Index) ListBytes() int { return ix.inner.ListBytes() }

// BucketInfo describes one probe bucket: size, length range, lazy-index
// state and its entry in the fit a Pretune method froze.
type BucketInfo = core.BucketInfo

// Buckets reports per-bucket state in decreasing-length order. The tuning
// fields show the frozen fit of a pretuned index (see PretuneTopK) and are
// false/zero otherwise: a retrieval's own fit is not index state.
func (ix *Index) Buckets() []BucketInfo { return ix.inner.Buckets() }

// PrepTime returns the preprocessing wall-clock time.
func (ix *Index) PrepTime() time.Duration { return ix.inner.PrepTime() }

// MergeTopK k-way-merges Row-Top-k results obtained from indexes over
// disjoint parts of one probe set into a single global result. Each part
// must hold one row per query (sorted by decreasing value, as Row-Top-k
// returns them) with probe ids in one id space; merged rows keep the k
// largest entries overall, equal values by ascending probe id.
func MergeTopK(k int, parts ...TopKRows) TopKRows { return retrieval.MergeTopK(k, parts...) }

// SortEntries orders entries canonically by (Query, Probe) ascending, the
// deterministic order used when emitting Above-θ result sets.
func SortEntries(entries []Entry) { retrieval.Sort(entries) }

// Matrix is a tall-and-skinny factor matrix: n vectors of dimension r,
// where vector j is the paper's column j.
type Matrix = matrix.Matrix
