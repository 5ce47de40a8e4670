package lemp

import (
	"io"

	"lemp/internal/core"
	"lemp/internal/snapshot"
)

// Index snapshots persist an index in the versioned LEMPIDX1 binary format
// as its catalog: the build options, the live probes and their ids, the
// mutation marks and, for a pretuned index, the query sample its fit was made
// on. A load is a build over that catalog (§3.2), followed for a pretuned
// index by a Pretune on the stored sample (§4.4). Every section is
// checksummed; a corrupt or truncated snapshot fails to load instead of
// serving wrong results.

// WriteSnapshot serializes the index in the LEMPIDX1 format: options, live
// probes and ids, mutation marks and, if pretuned, the retained tuning sample
// and problem. A mutated index is written as its compaction would be, and is
// not compacted. It may run beside retrieval calls, and its bytes do not
// depend on which were answered.
func (ix *Index) WriteSnapshot(w io.Writer) error {
	return snapshot.Write(w, ix.inner.State())
}

// SnapshotOptions is the options parameter of server.WriteSnapshotsWith,
// which ignores it: a snapshot stores no sorted lists, so IncludeLists adds
// nothing to a file.
type SnapshotOptions struct {
	IncludeLists bool
}

// LoadOptions adjust how a snapshot is turned back into an Index. Only
// runtime behavior can be overridden; everything that shaped the index
// structure (algorithm, bucket sizing, …) is fixed by the snapshot.
type LoadOptions struct {
	// Parallelism overrides the snapshot's retrieval parallelism
	// (0 keeps the stored value).
	Parallelism int
	// Retune discards the snapshot's retained tuning sample: the loaded
	// index is not pretuned and re-runs per-call sample-based tuning like a
	// freshly built one, and the load skips the fit on the sample.
	Retune bool
	// Quant overrides the snapshot's Options.Quantize (recorded by the QNT8
	// section). QuantAuto keeps it as written, QuantOn forces it on and
	// QuantOff off. With the option on, the index screens every pair, as
	// one built with it does; with it off, it screens like one built without
	// it: only where the int8 kernels are assembly. Either way the loader
	// quantizes nothing: a bucket's int8 sidecar is built on first screened
	// use. Exact results are identical in every mode.
	Quant QuantMode
}

// QuantMode selects how LoadIndex sets a snapshot's Options.Quantize.
type QuantMode int

const (
	// QuantAuto restores the snapshot's own setting: Options.Quantize on iff
	// it has a QNT8 section.
	QuantAuto QuantMode = iota
	// QuantOn forces Options.Quantize on: the restored index screens every
	// pair, each bucket's sidecar built on first screened use.
	QuantOn
	// QuantOff loads with Options.Quantize off. The restored index still
	// screens where the int8 kernels are assembly, as any index built
	// without the option does.
	QuantOff
)

// LoadIndex reads a LEMPIDX1 snapshot and builds the index from it: it
// bucketizes the probes as New does and, when the snapshot retains a tuning
// sample and opts.Retune is false, pretunes on it as PretuneTopK or
// PretuneAboveTheta did, so the loaded index answers with zero per-call
// tuning. Under Options.TuneByCost that fit equals the written index's; under
// wall-clock tuning it is measured again. The snapshot is checksum-verified;
// any corruption or version mismatch is an error. A loaded index answers
// queries identically to the index that was snapshotted. The sections older
// formats stored beside the catalog — buckets, fit, sorted lists, int8
// sidecars, shard placement — are read and discarded.
func LoadIndex(r io.Reader, opts LoadOptions) (*Index, error) {
	return loadIndex(r, opts, false)
}

// LoadIndexLength is LoadIndex for a caller that serves LENGTH alone, as
// the lemp-serve server does: it builds the snapshot's catalog under
// AlgorithmL (Phi 0 where another algorithm wrote it), fits no tuning sample
// (opts.Retune is implied) and keeps the catalog's ids, epoch and AutoID
// mark. The file is read once and its probes built once, in place where the
// file holds them in scan order, as LoadIndex builds an AlgorithmL file.
func LoadIndexLength(r io.Reader, opts LoadOptions) (*Index, error) {
	opts.Retune = true
	return loadIndex(r, opts, true)
}

func loadIndex(r io.Reader, opts LoadOptions, length bool) (*Index, error) {
	st, err := snapshot.Read(r)
	if err != nil {
		return nil, err
	}
	if length && st.Opts.Algorithm != core.AlgL {
		st.Opts.Algorithm, st.Opts.Phi = core.AlgL, 0
	}
	if opts.Parallelism != 0 {
		st.Opts.Parallelism = opts.Parallelism
	}
	if opts.Retune {
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

// Pretuned reports whether per-call tuning is frozen: the index reuses
// stored per-bucket parameters (§4.4) instead of re-tuning on every
// retrieval call. See PretuneTopK.
func (ix *Index) Pretuned() bool { return ix.inner.Pretuned() }

// PretuneTopK fits the per-bucket algorithm-selection parameters (§4.4) on
// the given query sample for Row-Top-k retrieval at the given k, and
// freezes them: subsequent retrieval calls skip tuning. A snapshot of the
// index carries the sample, and LoadIndex fits on it again, so a reloaded
// index answers with zero tuning time too. Results stay exact either way;
// tuning only picks the per-bucket method. LoadOptions.Retune loads a
// snapshot unfrozen.
func (ix *Index) PretuneTopK(q *Matrix, k int) error {
	return ix.inner.Pretune(q, core.Problem{K: k})
}

// PretuneAboveTheta is PretuneTopK for Above-θ retrieval at threshold theta.
func (ix *Index) PretuneAboveTheta(q *Matrix, theta float64) error {
	return ix.inner.Pretune(q, core.Problem{Theta: theta})
}
