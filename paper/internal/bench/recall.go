package bench

import "lemp/internal/retrieval"

// recall returns the fraction of true top-k entries (per exact) that also
// appear in approx, averaged over queries — the quality metric of an
// approximate Row-Top-k answer, such as LEMP-BLSH's against exact LEMP-LI in
// Table 6. Rows must correspond query by query.
func recall(exact, approx retrieval.TopK) float64 {
	if len(exact) == 0 {
		return 1
	}
	var sum float64
	var rows int
	for i := range exact {
		if len(exact[i]) == 0 {
			continue
		}
		rows++
		truth := make(map[int]bool, len(exact[i]))
		for _, e := range exact[i] {
			truth[e.Probe] = true
		}
		hit := 0
		if i < len(approx) {
			for _, e := range approx[i] {
				if truth[e.Probe] {
					hit++
				}
			}
		}
		sum += float64(hit) / float64(len(exact[i]))
	}
	if rows == 0 {
		return 1
	}
	return sum / float64(rows)
}
