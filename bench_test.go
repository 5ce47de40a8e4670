// Benchmarks regenerating the paper's evaluation artifacts (one benchmark
// per table/figure, sub-benchmarks per cell) at a reduced scale so that
// `go test -bench=. -benchmem` completes in minutes. The full-scale
// experiment harness is cmd/lemp-bench; EXPERIMENTS.md records its output
// against the paper's numbers.
package lemp_test

import (
	"context"
	"sync"
	"testing"

	"lemp/internal/core"
	"lemp/internal/covertree"
	"lemp/internal/data"
	"lemp/internal/matrix"
	"lemp/internal/naive"
	"lemp/internal/retrieval"
	"lemp/internal/ta"
	"lemp/internal/topk"
	"lemp/internal/vecmath"
)

// benchScale shrinks the paper-profile datasets for benchmarking.
const benchScale = 0.12

type benchSet struct {
	q, p   *matrix.Matrix
	thetas map[int]float64 // recall level -> θ
}

var (
	benchMu   sync.Mutex
	benchSets = map[string]*benchSet{}
)

// getSet generates (once) the scaled dataset and calibrates θ for the
// benchmark recall levels.
func getSet(b *testing.B, name string) *benchSet {
	b.Helper()
	benchMu.Lock()
	defer benchMu.Unlock()
	if s, ok := benchSets[name]; ok {
		return s
	}
	profile, err := data.ByName(name)
	if err != nil {
		b.Fatal(err)
	}
	profile = profile.Scale(benchScale)
	q, p := profile.Generate()
	s := &benchSet{q: q, p: p, thetas: map[int]float64{}}
	levels := []int{100, 1000, 10000}
	heap := topk.New(levels[len(levels)-1])
	for i := 0; i < q.N(); i++ {
		qi := q.Vec(i)
		for j := 0; j < p.N(); j++ {
			heap.Push(j, vecmath.Dot(qi, p.Vec(j)))
		}
	}
	items := heap.Items()
	for _, l := range levels {
		if l-1 < len(items) && items[l-1].Value > 0 {
			s.thetas[l] = items[l-1].Value
		}
	}
	benchSets[name] = s
	return s
}

var sinkCount int64

func countSink(e retrieval.Entry) { sinkCount++ }

// --- Method micro-runners reused by all table/figure benchmarks ----------

func benchNaiveAbove(b *testing.B, s *benchSet, theta float64) {
	for i := 0; i < b.N; i++ {
		naive.AboveTheta(s.q, s.p, theta, countSink)
	}
}

func benchTAAbove(b *testing.B, s *benchSet, theta float64) {
	for i := 0; i < b.N; i++ {
		ix := ta.NewIndex(s.p) // total time includes indexing, as in the paper
		ix.AboveTheta(s.q, theta, countSink)
	}
}

func benchTreeAbove(b *testing.B, s *benchSet, theta float64) {
	for i := 0; i < b.N; i++ {
		tree := covertree.Build(s.p, covertree.DefaultBase)
		tree.AboveTheta(s.q, theta, countSink)
	}
}

func benchDTreeAbove(b *testing.B, s *benchSet, theta float64) {
	for i := 0; i < b.N; i++ {
		dual := covertree.NewDual(s.q, s.p, covertree.DefaultBase)
		dual.AboveTheta(theta, countSink)
	}
}

func benchLEMPAbove(b *testing.B, s *benchSet, theta float64, alg core.Algorithm, opts core.Options) {
	opts.Algorithm = alg
	for i := 0; i < b.N; i++ {
		ix, err := core.NewIndex(s.p, opts)
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := ix.Retrieve(context.Background(), s.q, core.Problem{Theta: theta}, countSink, core.RunOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

func benchNaiveTopK(b *testing.B, s *benchSet, k int) {
	for i := 0; i < b.N; i++ {
		naive.RowTopK(s.q, s.p, k)
	}
}

func benchTATopK(b *testing.B, s *benchSet, k int) {
	for i := 0; i < b.N; i++ {
		ix := ta.NewIndex(s.p)
		ix.RowTopK(s.q, k)
	}
}

func benchTreeTopK(b *testing.B, s *benchSet, k int) {
	for i := 0; i < b.N; i++ {
		tree := covertree.Build(s.p, covertree.DefaultBase)
		tree.RowTopK(s.q, k)
	}
}

func benchDTreeTopK(b *testing.B, s *benchSet, k int) {
	for i := 0; i < b.N; i++ {
		dual := covertree.NewDual(s.q, s.p, covertree.DefaultBase)
		dual.RowTopK(k)
	}
}

func benchLEMPTopK(b *testing.B, s *benchSet, k int, alg core.Algorithm, opts core.Options) {
	opts.Algorithm = alg
	for i := 0; i < b.N; i++ {
		ix, err := core.NewIndex(s.p, opts)
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := ix.Retrieve(context.Background(), s.q, core.Problem{K: k}, nil, core.RunOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Figure 5: Above-θ @1K, all methods, IE datasets ----------------------

func BenchmarkFig5AboveTheta1K(b *testing.B) {
	for _, name := range []string{"IE-NMF", "IE-SVD"} {
		s := getSet(b, name)
		theta := s.thetas[1000]
		b.Run(name+"/Naive", func(b *testing.B) { benchNaiveAbove(b, s, theta) })
		b.Run(name+"/D-Tree", func(b *testing.B) { benchDTreeAbove(b, s, theta) })
		b.Run(name+"/Tree", func(b *testing.B) { benchTreeAbove(b, s, theta) })
		b.Run(name+"/TA", func(b *testing.B) { benchTAAbove(b, s, theta) })
		b.Run(name+"/LEMP-LI", func(b *testing.B) { benchLEMPAbove(b, s, theta, core.AlgLI, core.Options{}) })
	}
}

// --- Figure 6a: Above-θ at the deepest usable recall level ----------------

func BenchmarkFig6aAboveThetaDeep(b *testing.B) {
	for _, name := range []string{"IE-NMF", "IE-SVD"} {
		s := getSet(b, name)
		theta, ok := s.thetas[10000]
		if !ok {
			continue
		}
		b.Run(name+"/Naive", func(b *testing.B) { benchNaiveAbove(b, s, theta) })
		b.Run(name+"/D-Tree", func(b *testing.B) { benchDTreeAbove(b, s, theta) })
		b.Run(name+"/Tree", func(b *testing.B) { benchTreeAbove(b, s, theta) })
		b.Run(name+"/TA", func(b *testing.B) { benchTAAbove(b, s, theta) })
		b.Run(name+"/LEMP-LI", func(b *testing.B) { benchLEMPAbove(b, s, theta, core.AlgLI, core.Options{}) })
	}
}

// --- Figure 6b: Row-Top-1, all methods, four datasets ---------------------

func BenchmarkFig6bRowTop1(b *testing.B) {
	for _, name := range []string{"IE-NMFT", "IE-SVDT", "Netflix", "KDD"} {
		s := getSet(b, name)
		b.Run(name+"/Naive", func(b *testing.B) { benchNaiveTopK(b, s, 1) })
		b.Run(name+"/D-Tree", func(b *testing.B) { benchDTreeTopK(b, s, 1) })
		b.Run(name+"/Tree", func(b *testing.B) { benchTreeTopK(b, s, 1) })
		b.Run(name+"/TA", func(b *testing.B) { benchTATopK(b, s, 1) })
		b.Run(name+"/LEMP-LI", func(b *testing.B) { benchLEMPTopK(b, s, 1, core.AlgLI, core.Options{}) })
	}
}

// --- Table 2: preprocessing (index construction) times --------------------

func BenchmarkTable2Preprocessing(b *testing.B) {
	for _, name := range []string{"IE-NMF", "Netflix", "KDD"} {
		s := getSet(b, name)
		b.Run(name+"/LEMP", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.NewIndex(s.p, core.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(name+"/TA", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ta.NewIndex(s.p)
			}
		})
		b.Run(name+"/Tree", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				covertree.Build(s.p, covertree.DefaultBase)
			}
		})
		b.Run(name+"/D-Tree", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				covertree.NewDual(s.q, s.p, covertree.DefaultBase)
			}
		})
	}
}

// --- Table 3: Above-θ recall sweep (LEMP vs best baseline) ----------------

func BenchmarkTable3AboveThetaSweep(b *testing.B) {
	for _, name := range []string{"IE-SVD", "IE-NMF"} {
		s := getSet(b, name)
		for _, level := range []int{100, 1000, 10000} {
			theta, ok := s.thetas[level]
			if !ok {
				continue
			}
			label := name + "/@" + itoa(level)
			b.Run(label+"/Tree", func(b *testing.B) { benchTreeAbove(b, s, theta) })
			b.Run(label+"/TA", func(b *testing.B) { benchTAAbove(b, s, theta) })
			b.Run(label+"/LEMP-LI", func(b *testing.B) { benchLEMPAbove(b, s, theta, core.AlgLI, core.Options{}) })
		}
	}
}

// --- Table 4: Row-Top-k sweep (LEMP vs best baseline) ---------------------

func BenchmarkTable4RowTopKSweep(b *testing.B) {
	for _, name := range []string{"IE-SVDT", "Netflix"} {
		s := getSet(b, name)
		for _, k := range []int{1, 10, 50} {
			label := name + "/k" + itoa(k)
			b.Run(label+"/Tree", func(b *testing.B) { benchTreeTopK(b, s, k) })
			b.Run(label+"/LEMP-LI", func(b *testing.B) { benchLEMPTopK(b, s, k, core.AlgLI, core.Options{}) })
		}
	}
}

// --- Table 5: bucket algorithms, Above-θ ----------------------------------

func BenchmarkTable5BucketAlgorithmsAbove(b *testing.B) {
	s := getSet(b, "IE-SVD")
	theta := s.thetas[1000]
	for _, alg := range core.Algorithms() {
		alg := alg
		b.Run("IE-SVD/@1K/LEMP-"+alg.String(), func(b *testing.B) {
			benchLEMPAbove(b, s, theta, alg, core.Options{})
		})
	}
}

// --- Table 6: bucket algorithms, Row-Top-k --------------------------------

func BenchmarkTable6BucketAlgorithmsTopK(b *testing.B) {
	for _, name := range []string{"IE-SVDT", "Netflix"} {
		s := getSet(b, name)
		for _, alg := range core.Algorithms() {
			alg := alg
			b.Run(name+"/k10/LEMP-"+alg.String(), func(b *testing.B) {
				benchLEMPTopK(b, s, 10, alg, core.Options{})
			})
		}
	}
}

// --- §6.2 caching ablation -------------------------------------------------

func BenchmarkCacheAblation(b *testing.B) {
	s := getSet(b, "KDD")
	b.Run("cache-aware", func(b *testing.B) { benchLEMPTopK(b, s, 10, core.AlgLI, core.Options{}) })
	b.Run("cache-oblivious", func(b *testing.B) {
		benchLEMPTopK(b, s, 10, core.AlgLI, core.Options{CacheBytes: -1})
	})
}

// --- §4.4 tuning ablation ---------------------------------------------------

func BenchmarkTuningAblation(b *testing.B) {
	s := getSet(b, "IE-SVDT")
	b.Run("tuned", func(b *testing.B) { benchLEMPTopK(b, s, 10, core.AlgLI, core.Options{}) })
	for _, phi := range []int{1, 3, 5} {
		phi := phi
		b.Run("fixed-phi"+itoa(phi), func(b *testing.B) {
			benchLEMPTopK(b, s, 10, core.AlgI, core.Options{Phi: phi})
		})
	}
}

// --- Micro-benchmarks for the hot paths ------------------------------------

func BenchmarkDot50(b *testing.B) {
	x := make([]float64, 50)
	y := make([]float64, 50)
	for i := range x {
		x[i] = float64(i) * 0.1
		y[i] = float64(50-i) * 0.1
	}
	var acc float64
	for i := 0; i < b.N; i++ {
		acc += vecmath.Dot(x, y)
	}
	benchGuard = acc
}

var benchGuard float64

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [12]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
