package main

import (
	"net/http"
	"testing"
)

func TestRefScanFindsTheLargestProduct(t *testing.T) {
	q := []float64{1, 2}
	rows := []float64{1, 1, -3, 5, 4, 0, 0, 0}
	if got := refScan(q, rows); got != 7 {
		t.Errorf("refScan = %v, want 7 (row 1: -3 + 10)", got)
	}
}

func TestRefPartsCoverTheRegionOnce(t *testing.T) {
	catalog := genCatalog(3, 1000, flatCoV)
	for _, n := range []int{1, 2, 3} {
		parts := refParts(catalog, 500, n)
		if len(parts) != n {
			t.Fatalf("%d parts, want %d", len(parts), n)
		}
		total := 0
		for i, p := range parts {
			if len(p)%dim != 0 {
				t.Errorf("part %d of %d is not whole rows", i, n)
			}
			if &p[0] != &catalog.Data()[total] {
				t.Errorf("part %d of %d does not start where part %d ended", i, n, i-1)
			}
			total += len(p)
		}
		if total != 500*dim {
			t.Errorf("%d parts cover %d rows, want 500", n, total/dim)
		}
	}
	if parts := refParts(catalog, 5000, 2); len(parts[0])+len(parts[1]) != 1000*dim {
		t.Errorf("a region larger than the catalog was not cut down to it")
	}
	// One goroutine per part finds the same maximum as one scan of the whole.
	q := catalog.Vec(0)
	if whole, split := refScanAll(q, refParts(catalog, 500, 1)), refScanAll(q, refParts(catalog, 500, 3)); whole != split {
		t.Errorf("split scan found %v, whole scan %v", split, whole)
	}
}

// The reference server answers every kind of body the workloads send with a
// 200 and a body of the fixed size, and refuses what is not JSON.
func TestRefServerAnswersEveryKindOfOp(t *testing.T) {
	catalog, queries := genCatalog(3, 500, skewCoV), genQueries(3, 32)
	rs, err := startRefServer(catalog, queries, 100)
	if err != nil {
		t.Fatal(err)
	}
	defer rs.stop()
	client := newHTTPClient()
	defer client.CloseIdleConnections()
	c := &httpCaller{client: client, base: rs.base}
	plan := genUpdatePlan(3, 500, 1)
	for _, o := range []op{topKOp(queries, 0, 1, 10), topKOp(queries, 0, 16, 10), aboveOp(queries, 1, 1, 0.5), updateOp(0, plan.batches[0])} {
		body, err := c.call(&o)
		if err != nil || len(body) != refRespSize {
			t.Errorf("%s: %d bytes, %v", o.kind, len(body), err)
		}
	}
	bad := op{kind: opTopK, body: []byte("{")}
	if _, err := c.call(&bad); err == nil {
		t.Errorf("a truncated body was answered")
	} else if se, ok := err.(statusError); !ok || se.code != http.StatusBadRequest {
		t.Errorf("a truncated body gave %v, want a 400", err)
	}
}
