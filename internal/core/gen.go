package core

// CandidateGen generates candidates from outside the package
// (RunOptions.Gen): the paper's §6.3 runs TA, cover trees, L2AP and
// BayesLSH-Lite inside LEMP's buckets, and those baselines live with the
// experiment harness (internal/bench). A call with a generator runs no
// tuning pass and replaces the bucket method of every (query, bucket) pair;
// bucket and query pruning, tombstones, the int8 screen and exact
// verification stay the scan's own, so an exact generator answers exactly.
type CandidateGen interface {
	// Worker returns the generator one scan worker of a call runs for each
	// of its pairs, one at a time; no other worker or call uses it, so it
	// may keep scratch without locking. State shared across workers
	// (per-bucket indexes) must be race-safe.
	Worker() GenFunc
}

// GenFunc generates one pair's candidates: it appends their distinct local
// ids to cand (empty, with room for the whole bucket) and returns the result
// with prefix 0, or returns prefix > 0 to make the bucket's first prefix
// local ids the candidates unwritten, which verification takes as one panel
// product. Tombstoned candidates are dropped by the scan.
type GenFunc func(b Bucket, q Pair, cand []int32) (lids []int32, prefix int)

// Pair is what a query brings to one bucket: its number within the call
// (queries sorted by decreasing length), unit direction and length (1 for
// Row-Top-k, which ranks directions), the global threshold θ (-Inf while a
// Row-Top-k heap is not yet full) and the local one θ_b = θ/(Len·l_b).
type Pair struct {
	QI            int32
	Dir           []float64
	Len           float64
	Theta, ThetaB float64
}

// Bucket is a read-only view of one probe bucket, its vectors named by local
// ids 0..Size()-1 in decreasing length. Views of one bucket compare equal,
// so they key per-bucket state: a bucket never changes once a retrieval can
// see it (mutations and Compact make new ones). Slices alias index state.
type Bucket struct{ b *bucket }

// Size, R, Dir, Len, MaxLen (l_b) and LengthPrefix (the number of leading
// vectors of length ≥ l) read the bucket.
func (v Bucket) Size() int                  { return v.b.size() }
func (v Bucket) R() int                     { return v.b.r }
func (v Bucket) Dir(lid int) []float64      { return v.b.dir(lid) }
func (v Bucket) Len(lid int) float64        { return v.b.lens[lid] }
func (v Bucket) MaxLen() float64            { return v.b.lb }
func (v Bucket) LengthPrefix(l float64) int { return v.b.lengthPrefix(l) }

// List returns coordinate f's sorted list (§4.2) — the direction values p̄_f
// by decreasing value and their local ids — building the lists on first use.
func (v Bucket) List(f int) (vals []float64, lids []int32) { return v.b.ensureLists(1).list(f) }
