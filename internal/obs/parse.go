package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// A strict parser for the Prometheus text exposition format (the subset
// WritePrometheus emits, which is the subset every scraper understands).
// It exists so the repo can verify its own /metrics output structurally —
// every family parses, TYPE precedes samples, no duplicate families or
// samples, histogram buckets are cumulative and +Inf-terminated — both in
// unit tests and in the CI metrics-smoke step (cmd promcheck).

// ParsedSample is one exposition line: full sample name (which may carry a
// _bucket/_sum/_count suffix), its labels, and the value.
type ParsedSample struct {
	Name   string
	Labels map[string]string
	Value  float64
}

// ParsedFamily is one metric family with its metadata and samples.
type ParsedFamily struct {
	Name    string
	Help    string
	Type    string
	Samples []ParsedSample
}

// LabelCardinality returns the number of distinct label sets in the family
// (histogram bucket `le` labels excluded), the quantity that must stay
// bounded for a registry not to be a memory leak.
func (f *ParsedFamily) LabelCardinality() int {
	seen := make(map[string]struct{})
	for _, s := range f.Samples {
		seen[labelKeyExcept(s.Labels, "le")] = struct{}{}
	}
	return len(seen)
}

// ParseExposition parses and validates text exposition format. It returns
// one ParsedFamily per declared family and fails on: samples without a
// preceding TYPE, duplicate TYPE declarations, duplicate samples, malformed
// names/labels/values, and histograms whose buckets are non-cumulative,
// missing +Inf, or whose _count disagrees with the +Inf bucket.
func ParseExposition(r io.Reader) (map[string]*ParsedFamily, error) {
	fams := make(map[string]*ParsedFamily)
	seenSamples := make(map[string]struct{})
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if strings.TrimSpace(line) == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if err := parseComment(line, fams); err != nil {
				return nil, fmt.Errorf("line %d: %w", lineNo, err)
			}
			continue
		}
		s, err := parseSample(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", lineNo, err)
		}
		fam, err := familyFor(fams, s.Name)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", lineNo, err)
		}
		dupKey := s.Name + "\x00" + labelKeyExcept(s.Labels, "")
		if _, dup := seenSamples[dupKey]; dup {
			return nil, fmt.Errorf("line %d: duplicate sample %s", lineNo, s.Name)
		}
		seenSamples[dupKey] = struct{}{}
		fam.Samples = append(fam.Samples, s)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	for _, fam := range fams {
		if fam.Type == "histogram" {
			if err := validateHistogram(fam); err != nil {
				return nil, fmt.Errorf("histogram %s: %w", fam.Name, err)
			}
		}
	}
	return fams, nil
}

func parseComment(line string, fams map[string]*ParsedFamily) error {
	fields := strings.SplitN(line, " ", 4)
	if len(fields) < 3 || (fields[1] != "HELP" && fields[1] != "TYPE") {
		return nil // free-form comment
	}
	name := fields[2]
	if !validMetricName(name) {
		return fmt.Errorf("invalid metric name %q in %s", name, fields[1])
	}
	fam := fams[name]
	if fam == nil {
		fam = &ParsedFamily{Name: name}
		fams[name] = fam
	}
	if fields[1] == "HELP" {
		if len(fields) == 4 {
			fam.Help = fields[3]
		}
		return nil
	}
	if fam.Type != "" {
		return fmt.Errorf("duplicate TYPE for %s", name)
	}
	if len(fam.Samples) > 0 {
		return fmt.Errorf("TYPE for %s after its samples", name)
	}
	if len(fields) != 4 {
		return fmt.Errorf("TYPE line for %s missing a type", name)
	}
	switch fields[3] {
	case "counter", "gauge", "histogram", "summary", "untyped":
		fam.Type = fields[3]
	default:
		return fmt.Errorf("unknown type %q for %s", fields[3], name)
	}
	return nil
}

// familyFor resolves a sample name to its declared family, allowing the
// histogram suffixes only on histogram families.
func familyFor(fams map[string]*ParsedFamily, sample string) (*ParsedFamily, error) {
	if fam, ok := fams[sample]; ok && fam.Type != "" {
		if fam.Type == "histogram" {
			return nil, fmt.Errorf("sample %s: histograms expose only _bucket/_sum/_count", sample)
		}
		return fam, nil
	}
	for _, suffix := range []string{"_bucket", "_sum", "_count"} {
		base, ok := strings.CutSuffix(sample, suffix)
		if !ok {
			continue
		}
		if fam, ok2 := fams[base]; ok2 && fam.Type == "histogram" {
			return fam, nil
		}
	}
	return nil, fmt.Errorf("sample %s has no preceding TYPE declaration", sample)
}

func parseSample(line string) (ParsedSample, error) {
	s := ParsedSample{}
	i := strings.IndexAny(line, "{ ")
	if i < 0 {
		return s, fmt.Errorf("malformed sample %q", line)
	}
	s.Name = line[:i]
	if !validMetricName(s.Name) {
		return s, fmt.Errorf("invalid sample name %q", s.Name)
	}
	rest := line[i:]
	if rest[0] == '{' {
		labels, tail, err := parseLabels(rest)
		if err != nil {
			return s, err
		}
		s.Labels = labels
		rest = tail
	}
	rest = strings.TrimSpace(rest)
	// A trailing timestamp is legal in the format; we accept and drop it.
	if j := strings.IndexByte(rest, ' '); j >= 0 {
		rest = rest[:j]
	}
	v, err := strconv.ParseFloat(rest, 64)
	if err != nil {
		return s, fmt.Errorf("sample %s: bad value %q", s.Name, rest)
	}
	s.Value = v
	return s, nil
}

// parseLabels consumes a `{k="v",...}` block (handling \\, \" and \n
// escapes) and returns the remainder of the line.
func parseLabels(in string) (map[string]string, string, error) {
	labels := make(map[string]string)
	i := 1 // past '{'
	for {
		for i < len(in) && (in[i] == ',' || in[i] == ' ') {
			i++
		}
		if i < len(in) && in[i] == '}' {
			return labels, in[i+1:], nil
		}
		j := strings.IndexByte(in[i:], '=')
		if j < 0 {
			return nil, "", fmt.Errorf("malformed labels %q", in)
		}
		key := in[i : i+j]
		if !validLabelName(key) && key != "le" {
			return nil, "", fmt.Errorf("invalid label name %q", key)
		}
		i += j + 1
		if i >= len(in) || in[i] != '"' {
			return nil, "", fmt.Errorf("unquoted label value in %q", in)
		}
		i++
		var val strings.Builder
		for {
			if i >= len(in) {
				return nil, "", fmt.Errorf("unterminated label value in %q", in)
			}
			c := in[i]
			if c == '"' {
				i++
				break
			}
			if c == '\\' {
				if i+1 >= len(in) {
					return nil, "", fmt.Errorf("dangling escape in %q", in)
				}
				switch in[i+1] {
				case '\\':
					val.WriteByte('\\')
				case '"':
					val.WriteByte('"')
				case 'n':
					val.WriteByte('\n')
				default:
					return nil, "", fmt.Errorf("unknown escape \\%c in %q", in[i+1], in)
				}
				i += 2
				continue
			}
			val.WriteByte(c)
			i++
		}
		if _, dup := labels[key]; dup {
			return nil, "", fmt.Errorf("duplicate label %q", key)
		}
		labels[key] = val.String()
	}
}

// validateHistogram checks each label set's bucket series: parseable le
// values, cumulative non-decreasing counts, a terminal +Inf bucket, and a
// _count sample that matches it.
func validateHistogram(fam *ParsedFamily) error {
	type series struct {
		les    []float64
		counts map[float64]float64
		count  *float64
		sum    bool
	}
	groups := make(map[string]*series)
	group := func(labels map[string]string) *series {
		k := labelKeyExcept(labels, "le")
		g := groups[k]
		if g == nil {
			g = &series{counts: make(map[float64]float64)}
			groups[k] = g
		}
		return g
	}
	for _, s := range fam.Samples {
		switch {
		case strings.HasSuffix(s.Name, "_bucket"):
			leStr, ok := s.Labels["le"]
			if !ok {
				return fmt.Errorf("bucket sample without le label")
			}
			le, err := strconv.ParseFloat(leStr, 64)
			if err != nil {
				return fmt.Errorf("bad le %q", leStr)
			}
			g := group(s.Labels)
			g.les = append(g.les, le)
			g.counts[le] = s.Value
		case strings.HasSuffix(s.Name, "_count"):
			g := group(s.Labels)
			v := s.Value
			g.count = &v
		case strings.HasSuffix(s.Name, "_sum"):
			group(s.Labels).sum = true
		}
	}
	for _, g := range groups {
		if len(g.les) == 0 {
			return fmt.Errorf("label set without buckets")
		}
		sort.Float64s(g.les)
		if !math.IsInf(g.les[len(g.les)-1], 1) {
			return fmt.Errorf("missing +Inf bucket")
		}
		prev := -1.0
		for _, le := range g.les {
			c := g.counts[le]
			if c < prev {
				return fmt.Errorf("non-cumulative buckets (le=%v count %v < %v)", le, c, prev)
			}
			prev = c
		}
		if g.count == nil || !g.sum {
			return fmt.Errorf("missing _count or _sum")
		}
		if *g.count != g.counts[math.Inf(1)] {
			return fmt.Errorf("_count %v disagrees with +Inf bucket %v", *g.count, g.counts[math.Inf(1)])
		}
	}
	return nil
}

// labelKeyExcept serializes labels (sorted) into a map key, skipping one
// label name (pass "" to keep all).
func labelKeyExcept(labels map[string]string, except string) string {
	if len(labels) == 0 {
		return ""
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		if except != "" && k == except {
			continue
		}
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		b.WriteString(k)
		b.WriteByte('\x01')
		b.WriteString(labels[k])
		b.WriteByte('\x02')
	}
	return b.String()
}
