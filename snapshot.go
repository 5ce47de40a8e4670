package lemp

import (
	"io"

	"lemp/internal/core"
	"lemp/internal/snapshot"
)

// Index snapshots persist an index in the versioned LEMPIDX1 binary format:
// the probe matrix, the build options and the bucketization (§3.2), and for
// pretuned indexes the sample-based parameter selection (§4.4), optionally
// with the sorted lists built so far. A load bucketizes the probes again, as
// a build does, and refuses a snapshot whose stored buckets differ from the
// ones it derives; what it skips is the tuning and the list builds, the
// expensive part. Every section is checksummed; a corrupt or truncated
// snapshot fails to load instead of serving wrong results.

// WriteSnapshot serializes the index (probe matrix, options, bucketization
// and, if pretuned, the frozen fit) in the LEMPIDX1 format. It may run
// beside retrieval calls, and its bytes do not depend on which were answered.
func (ix *Index) WriteSnapshot(w io.Writer) error {
	return ix.WriteSnapshotWith(w, SnapshotOptions{})
}

// SnapshotOptions adjust what WriteSnapshotWith persists beyond the
// required index state.
type SnapshotOptions struct {
	// IncludeLists also persists the per-bucket sorted-list indexes built
	// so far, so a restored index answers its first coordinate-method
	// queries without rebuilding them (they otherwise dominate the first
	// post-restore batch). Roughly doubles the snapshot size; the loader
	// verifies the lists against the directions it derives from the probe
	// matrix, so corruption fails the load instead of mis-pruning.
	IncludeLists bool
}

// WriteSnapshotWith is WriteSnapshot with explicit persistence options.
func (ix *Index) WriteSnapshotWith(w io.Writer, opts SnapshotOptions) error {
	return snapshot.WriteWith(w, ix.inner.State(), snapshot.WriteOptions{IncludeLists: opts.IncludeLists})
}

// LoadOptions adjust how a snapshot is turned back into an Index. Only
// runtime behavior can be overridden; everything that shaped the index
// structure (algorithm, bucket sizing, …) is fixed by the snapshot.
type LoadOptions struct {
	// Parallelism overrides the snapshot's retrieval parallelism
	// (0 keeps the stored value).
	Parallelism int
	// Retune discards the snapshot's frozen tuning decision: the loaded
	// index re-runs per-call sample-based tuning like a freshly built one,
	// instead of reusing the stored per-bucket parameters.
	Retune bool
	// Quant overrides the snapshot's Options.Quantize (recorded by the QNT8
	// section). QuantAuto keeps it as written, QuantOn forces it on and
	// QuantOff off. With the option on, the loader quantizes every bucket's
	// directions into its int8 sidecar before returning the index; with it
	// off, the index screens like one built without it: lazily, and only
	// where the int8 kernels are assembly. Exact results are identical in
	// every mode.
	Quant QuantMode
}

// QuantMode selects how LoadIndex sets a snapshot's Options.Quantize.
type QuantMode int

const (
	// QuantAuto restores the snapshot's own setting: Options.Quantize on iff
	// it has a QNT8 section.
	QuantAuto QuantMode = iota
	// QuantOn forces Options.Quantize on: every bucket is quantized at load.
	QuantOn
	// QuantOff loads with Options.Quantize off. The restored index still
	// screens where the int8 kernels are assembly, through sidecars it
	// builds lazily, as any index built without the option does.
	QuantOff
)

// LoadIndex reads a LEMPIDX1 snapshot and rebuilds the index: it
// bucketizes the probes as New does and adopts the stored fit and sorted
// lists onto those buckets, so it skips the tuning and the list builds. The
// snapshot is checksum-verified and its buckets must be the ones the build
// derives; any corruption or version mismatch is an error. A loaded index answers queries identically to the
// index that was snapshotted. The shard-placement name and direction cone
// older builds wrote (the PLMT section) are read and discarded.
func LoadIndex(r io.Reader, opts LoadOptions) (*Index, error) {
	st, err := snapshot.Read(r)
	if err != nil {
		return nil, err
	}
	if opts.Parallelism != 0 {
		st.Opts.Parallelism = opts.Parallelism
	}
	if opts.Retune {
		// Unfreezing discards the whole pretune decision, retained sample
		// included: the loaded index behaves like a freshly built one.
		st.Pretuned = false
		st.TuneSample = nil
	}
	switch opts.Quant {
	case QuantOn:
		st.Opts.Quantize = true
	case QuantOff:
		st.Opts.Quantize = false
	}
	inner, err := core.FromState(st)
	if err != nil {
		return nil, err
	}
	return &Index{inner: inner}, nil
}

// Probe returns the probe matrix the index was built over (or loaded with).
// It aliases index state: mutating it invalidates the index.
func (ix *Index) Probe() *Matrix { return ix.inner.Probe() }

// Pretuned reports whether per-call tuning is frozen: the index reuses
// stored per-bucket parameters (§4.4) instead of re-tuning on every
// retrieval call. See PretuneTopK.
func (ix *Index) Pretuned() bool { return ix.inner.Pretuned() }

// PretuneTopK fits the per-bucket algorithm-selection parameters (§4.4) on
// the given query sample for Row-Top-k retrieval at the given k, and
// freezes them: subsequent retrieval calls skip tuning and a snapshot of
// the index carries the fitted parameters, so a reloaded server answers
// with zero tuning time. Results stay exact either way; tuning only picks
// the per-bucket method. Use LoadOptions.Retune to unfreeze.
func (ix *Index) PretuneTopK(q *Matrix, k int) error {
	return ix.inner.Pretune(q, core.Problem{K: k})
}

// PretuneAboveTheta is PretuneTopK for Above-θ retrieval at threshold theta.
func (ix *Index) PretuneAboveTheta(q *Matrix, theta float64) error {
	return ix.inner.Pretune(q, core.Problem{Theta: theta})
}
