package bench

import (
	"lemp/paper/internal/covertree"
	"lemp/paper/internal/ta"
)

// Construction helpers for Table 2: build each baseline's index and return
// a size so the work cannot be optimized away.

func taIndexEntries(ds *dataset) int {
	ix := ta.NewIndex(ds.p)
	return int(ix.PrepTime()) & 1 // consume the index
}

func treeNodes(ds *dataset) int {
	return covertree.Build(ds.p, covertree.DefaultBase).NumNodes()
}

func dualNodes(ds *dataset) int {
	d := covertree.NewDual(ds.q, ds.p, covertree.DefaultBase)
	return d.Q.NumNodes() + d.P.NumNodes()
}
