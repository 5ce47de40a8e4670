package core

import (
	"cmp"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"slices"
	"testing"

	"lemp/internal/data"
)

// byDecreasingLengthIndirect is byDecreasingLength as it was before the sort
// moved its keys with the columns and spread over goroutines, kept verbatim
// as the oracle of TestByDecreasingLengthMatchesStableSort: a stable LSD
// radix sort of the column numbers over ^Float64bits(length), reading each
// column's key through its number.
func byDecreasingLengthIndirect(lens []float64) []int32 {
	n := len(lens)
	keys := make([]uint64, n)
	var cnt [8][256]int32
	for i, l := range lens {
		k := ^math.Float64bits(l)
		keys[i] = k
		for b := range cnt {
			cnt[b][byte(k>>(8*b))]++
		}
	}
	src, dst := identityIDs(n), make([]int32, n)
	for b := range cnt {
		shift := 8 * b
		c := &cnt[b]
		if int(c[byte(keys[0]>>shift)]) == n {
			continue
		}
		at := int32(0)
		for j, x := range c {
			c[j], at = at, at+x
		}
		for _, col := range src {
			j := byte(keys[col] >> shift)
			dst[c[j]] = col
			c[j]++
		}
		src, dst = dst, src
	}
	return src
}

// TestByDecreasingLengthMatchesStableSort holds the spread radix sort to
// the indirect one it replaced and to a stable comparison sort — the same
// column order, ties in column order, and the lengths in that order bit for
// bit — at Parallelism 1, 2, 3 and 7, on flat and skewed catalogs' lengths,
// lengths all equal, all zero, subnormal or tied in a few values, and on
// column counts just around the ones at which another goroutine joins.
func TestByDecreasingLengthMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	fill := map[string]func(lens []float64){
		"flat": func(lens []float64) {
			copy(lens, data.GenerateVectors(rng, len(lens), 8, 0.40, 1, false).Lengths())
		},
		"skewed": func(lens []float64) {
			copy(lens, data.GenerateVectors(rng, len(lens), 8, 4.44, 1, false).Lengths())
		},
		"equal": func(lens []float64) {
			for i := range lens {
				lens[i] = 1.5
			}
		},
		"zero": func(lens []float64) { clear(lens) },
		"subnormal": func(lens []float64) {
			for i := range lens {
				lens[i] = math.Float64frombits(uint64(rng.Intn(1 << 12)))
			}
		},
		"tied": func(lens []float64) { // a few values, zeros among them
			vals := []float64{0, 1, 2, 1e-300, 1e300, 0.5}
			for i := range lens {
				lens[i] = vals[rng.Intn(len(vals))]
			}
		},
	}
	sizes := []int{0, 1, 2, 255, 257, spreadMinCols - 1, spreadMinCols, spreadMinCols + 1,
		2*spreadMinCols - 1, 2 * spreadMinCols, 2*spreadMinCols + 1, 3*spreadMinCols + 5, 7*spreadMinCols + 3}
	for _, name := range slices.Sorted(maps.Keys(fill)) {
		for _, n := range sizes {
			lens := make([]float64, n)
			fill[name](lens)
			want := identityIDs(n)
			slices.SortStableFunc(want, func(a, b int32) int { return cmp.Compare(lens[b], lens[a]) })
			if n > 0 && !slices.Equal(byDecreasingLengthIndirect(lens), want) {
				t.Fatalf("%s n=%d: the indirect radix sort disagrees with the stable sort", name, n)
			}
			for _, workers := range []int{1, 2, 3, 7} {
				order, sorted := byDecreasingLength(lens, workers)
				if !slices.Equal(order, want) {
					t.Fatalf("%s n=%d Parallelism %d: order differs from the stable sort's", name, n, workers)
				}
				for i, col := range order {
					if math.Float64bits(sorted[i]) != math.Float64bits(lens[col]) {
						t.Fatalf("%s n=%d Parallelism %d: sorted length %d = %v, column %d has %v", name, n, workers, i, sorted[i], col, lens[col])
					}
				}
			}
		}
	}
}

// BenchmarkByDecreasingLength sorts the lengths of a 200 000-probe flat
// catalog (CoV 0.40, serve_flat's) at Parallelism 1 and 2, the spread sort
// beside the indirect one it replaced.
//
//	go test ./internal/core -run '^$' -bench ByDecreasingLength
func BenchmarkByDecreasingLength(b *testing.B) {
	lens := data.GenerateVectors(rand.New(rand.NewSource(1)), 200_000, 50, 0.40, 1, false).Lengths()
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("p=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				byDecreasingLength(lens, workers)
			}
		})
	}
	b.Run("indirect", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			byDecreasingLengthIndirect(lens)
		}
	})
}
