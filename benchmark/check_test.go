package main

import (
	"fmt"
	"testing"

	"lemp"
)

func TestTopKRowMatchesComparesTiesByValue(t *testing.T) {
	want := []lemp.Entry{{Probe: 4, Value: 0.9}, {Probe: 7, Value: 0.5}, {Probe: 2, Value: 0.5}}
	values := map[int]float64{4: 0.9, 7: 0.5, 2: 0.5, 9: 0.5, 1: 0.1}
	dot := func(p int) (float64, bool) { v, ok := values[p]; return v, ok }
	for _, tc := range []struct {
		name string
		got  []entry
		ok   bool
	}{
		{"identical", []entry{{4, 0.9}, {7, 0.5}, {2, 0.5}}, true},
		{"tie broken the other way", []entry{{4, 0.9}, {2, 0.5}, {7, 0.5}}, true},
		{"another probe of the tied value", []entry{{4, 0.9}, {7, 0.5}, {9, 0.5}}, true},
		{"last-ulp difference", []entry{{4, 0.9 + 1e-15}, {7, 0.5}, {2, 0.5}}, true},
		{"short row", []entry{{4, 0.9}, {7, 0.5}}, false},
		{"wrong value", []entry{{4, 0.9}, {7, 0.5}, {2, 0.4}}, false},
		{"claimed value is not the probe's", []entry{{4, 0.9}, {7, 0.5}, {1, 0.5}}, false},
		{"dead probe", []entry{{4, 0.9}, {7, 0.5}, {33, 0.5}}, false},
		{"probe twice", []entry{{4, 0.9}, {7, 0.5}, {7, 0.5}}, false},
	} {
		if err := topKRowMatches(tc.got, want, dot); (err == nil) != tc.ok {
			t.Errorf("%s: err = %v, want ok = %v", tc.name, err, tc.ok)
		}
	}
}

func TestAboveRowMatches(t *testing.T) {
	const theta = 0.5
	want := []lemp.Entry{{Probe: 1, Value: 0.8}, {Probe: 5, Value: 0.6}, {Probe: 8, Value: theta * (1 + 1e-13)}}
	for _, tc := range []struct {
		name string
		got  []entry
		ok   bool
	}{
		{"identical", []entry{{1, 0.8}, {5, 0.6}, {8, theta}}, true},
		{"borderline entry left out", []entry{{1, 0.8}, {5, 0.6}}, true},
		{"borderline entry added", []entry{{1, 0.8}, {3, theta * (1 - 1e-13)}, {5, 0.6}, {8, theta}}, true},
		{"entry missing", []entry{{1, 0.8}, {8, theta}}, false},
		{"entry invented", []entry{{1, 0.8}, {2, 0.7}, {5, 0.6}, {8, theta}}, false},
		{"wrong value", []entry{{1, 0.8}, {5, 0.7}, {8, theta}}, false},
		{"probes not ascending", []entry{{5, 0.6}, {1, 0.8}, {8, theta}}, false},
	} {
		if err := aboveRowMatches(tc.got, want, theta); (err == nil) != tc.ok {
			t.Errorf("%s: err = %v, want ok = %v", tc.name, err, tc.ok)
		}
	}
}

// The oracle over the mirror must see exactly the probe set the applied
// batches leave: an added probe can win, a removed one cannot, an updated
// one wins with its new vector, and ids survive the mirror's compaction.
func TestMirrorOracleFollowsUpdates(t *testing.T) {
	catalog := genCatalog(9, 300, flatCoV)
	q := genQueries(9, 1)
	m := newMirror(catalog)
	o, err := m.oracle()
	if err != nil {
		t.Fatal(err)
	}
	before := o.topK(q, 3)[0]
	best, second := before[0].Probe, before[1].Probe

	big := make([]float64, dim)
	for i, x := range q.Vec(0) {
		big[i] = 100 * x // collinear with the query: an unbeatable product
	}
	huge := make([]float64, dim)
	for i, x := range q.Vec(0) {
		huge[i] = 200 * x
	}
	err = m.apply([]lemp.ProbeUpdate{
		{Op: lemp.OpRemove, ID: int32(best)},
		{Op: lemp.OpAdd, ID: 1000, Vec: big},
		{Op: lemp.OpUpdate, ID: int32(second), Vec: huge},
	})
	if err != nil {
		t.Fatal(err)
	}
	if o, err = m.oracle(); err != nil {
		t.Fatal(err)
	}
	after := o.topK(q, 3)[0]
	if after[0].Probe != second || after[1].Probe != 1000 {
		t.Errorf("top of the mirror is %v, want updated probe %d then added probe 1000", after, second)
	}
	for _, e := range after {
		if e.Probe == best {
			t.Errorf("removed probe %d still returned", best)
		}
	}
	if v, live := m.dot(q.Vec(0), best); live {
		t.Errorf("removed probe still live with value %v", v)
	}
	for _, bad := range [][]lemp.ProbeUpdate{
		{{Op: lemp.OpAdd, ID: 1000, Vec: big}},
		{{Op: lemp.OpRemove, ID: int32(best)}},
		{{Op: lemp.OpUpdate, ID: int32(best), Vec: big}},
	} {
		if err := m.apply(bad); err == nil {
			t.Errorf("mirror accepted %v", bad[0].Op)
		}
	}
	above := o.above(q, after[1].Value)
	if len(above[0]) != 2 {
		t.Errorf("above the second value: %v, want two entries", above[0])
	}
}

func TestCheckStructure(t *testing.T) {
	catalog := genCatalog(9, 300, flatCoV)
	q := genQueries(9, 2)
	plan := genUpdatePlan(9, 300, 4)
	o := &oracle{probes: catalog}
	var untouched []lemp.Entry
	for _, e := range o.topK(q.Head(1), 20)[0] {
		if plan.untouched(e.Probe) {
			untouched = append(untouched, e)
		}
	}
	body := func(es ...lemp.Entry) []byte {
		s := `{"results":[[`
		for i, e := range es {
			if i > 0 {
				s += ","
			}
			s += fmt.Sprintf(`{"probe":%d,"value":%v}`, e.Probe, e.Value)
		}
		return []byte(s + "]]}")
	}
	top := topKOp(q, 0, 1, 3)
	a, b, c := untouched[0], untouched[1], untouched[2]
	if err := checkStructure(sample{op: &top, body: body(a, b, c)}, catalog, q, 0, plan); err != nil {
		t.Errorf("a correct row was rejected: %v", err)
	}
	wrong := b
	wrong.Value *= 1.01
	for name, bad := range map[string][]byte{
		"not descending":  body(b, a, c),
		"more than k":     body(a, b, c, untouched[3]),
		"probe twice":     body(a, b, b),
		"value not q'p":   body(a, wrong, c),
		"two result rows": []byte(`{"results":[[],[]]}`),
		"not JSON":        []byte(`overloaded`),
	} {
		if err := checkStructure(sample{op: &top, body: bad}, catalog, q, 0, plan); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// A probe some update touches may hold any vector by now: its value is
	// not recomputed.
	var touched int32
	for id := range plan.touched {
		touched = id
		break
	}
	moved := lemp.Entry{Probe: int(touched), Value: a.Value + 1}
	if err := checkStructure(sample{op: &top, body: body(moved, a, b)}, catalog, q, 0, plan); err != nil {
		t.Errorf("a touched probe's value was held against the original catalog: %v", err)
	}
}
