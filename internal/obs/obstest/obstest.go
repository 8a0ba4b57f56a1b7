// Package obstest parses and checks a Prometheus text exposition (format
// 0.0.4) for tests: every family has HELP and TYPE once, before its samples,
// and every histogram series has increasing le bounds, non-decreasing
// cumulative buckets, a +Inf bucket, a _sum and a _count equal to +Inf.
package obstest

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Exposition is a parsed, checked scrape.
type Exposition struct {
	// Types maps each family name to its TYPE.
	Types map[string]string
	// Labels maps each family name to the label keys its samples carry,
	// sorted (le included for histograms).
	Labels map[string][]string
	// Values maps each sample, written as it appears before the value
	// (`name{k="v"}`), to its value.
	Values map[string]float64
}

// Families lists every family as "name type k1,k2", sorted: the shape a
// scrape promises to dashboards, independent of its values.
func (e *Exposition) Families() []string {
	out := make([]string, 0, len(e.Types))
	for name, typ := range e.Types {
		out = append(out, name+" "+typ+" "+strings.Join(e.Labels[name], ","))
	}
	sort.Strings(out)
	return out
}

// histSeries tracks one histogram series while its lines stream by.
type histSeries struct {
	lastLe   float64
	lastCum  float64
	buckets  int
	inf      float64
	hasInf   bool
	count    float64
	hasCount bool
	hasSum   bool
}

// Parse parses text and checks the invariants in the package comment.
func Parse(text string) (*Exposition, error) {
	e := &Exposition{Types: map[string]string{}, Labels: map[string][]string{}, Values: map[string]float64{}}
	helps := map[string]bool{}
	labelSets := map[string]map[string]bool{}
	hists := map[string]*histSeries{}
	var histKeys []string
	current := ""
	for n, line := range strings.Split(text, "\n") {
		fail := func(format string, args ...any) error {
			return fmt.Errorf("line %d %q: %s", n+1, line, fmt.Sprintf(format, args...))
		}
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			f := strings.SplitN(line, " ", 4)
			if len(f) < 4 || (f[1] != "HELP" && f[1] != "TYPE") {
				continue // a plain comment
			}
			name := f[2]
			if name != current {
				if _, seen := labelSets[name]; seen {
					return nil, fail("family %s is not contiguous", name)
				}
				current = name
				labelSets[name] = map[string]bool{}
			}
			if f[1] == "HELP" {
				if helps[name] {
					return nil, fail("second HELP for %s", name)
				}
				helps[name] = true
				continue
			}
			if _, dup := e.Types[name]; dup {
				return nil, fail("second TYPE for %s", name)
			}
			switch f[3] {
			case "counter", "gauge", "histogram", "summary", "untyped":
			default:
				return nil, fail("unknown type %q", f[3])
			}
			e.Types[name] = f[3]
			continue
		}
		name, labels, value, err := parseSample(line)
		if err != nil {
			return nil, fail("%v", err)
		}
		typ, ok := e.Types[current]
		if !ok {
			return nil, fail("sample before its family's TYPE")
		}
		suffix := strings.TrimPrefix(name, current)
		switch {
		case suffix == "" && typ != "histogram":
		case typ == "histogram" && (suffix == "_bucket" || suffix == "_sum" || suffix == "_count"):
		default:
			return nil, fail("sample does not belong to family %s (%s)", current, typ)
		}
		sampleKey := line[:strings.LastIndexByte(line, ' ')]
		if _, dup := e.Values[sampleKey]; dup {
			return nil, fail("duplicate sample")
		}
		e.Values[sampleKey] = value
		for _, l := range labels {
			labelSets[current][l[0]] = true
		}
		if typ != "histogram" {
			continue
		}
		le, rest := "", make([]string, 0, len(labels))
		for _, l := range labels {
			if l[0] == "le" {
				le = l[1]
			} else {
				rest = append(rest, l[0]+"="+l[1])
			}
		}
		key := current + "{" + strings.Join(rest, ",") + "}"
		h := hists[key]
		if h == nil {
			h = &histSeries{lastLe: math.Inf(-1)}
			hists[key] = h
			histKeys = append(histKeys, key)
		}
		switch suffix {
		case "_bucket":
			if le == "" {
				return nil, fail("bucket without le")
			}
			if h.hasInf {
				return nil, fail("bucket after +Inf")
			}
			bound, err := strconv.ParseFloat(le, 64)
			if err != nil {
				return nil, fail("unparseable le %q", le)
			}
			if bound <= h.lastLe {
				return nil, fail("le %q not above the previous bound", le)
			}
			if value < h.lastCum {
				return nil, fail("cumulative bucket count decreased")
			}
			h.lastLe, h.lastCum = bound, value
			h.buckets++
			if math.IsInf(bound, 1) {
				h.inf, h.hasInf = value, true
			}
		case "_sum":
			h.hasSum = true
		case "_count":
			h.count, h.hasCount = value, true
		}
	}
	for _, key := range histKeys {
		h := hists[key]
		switch {
		case !h.hasInf:
			return nil, fmt.Errorf("histogram series %s has no +Inf bucket", key)
		case !h.hasSum || !h.hasCount:
			return nil, fmt.Errorf("histogram series %s lacks _sum or _count", key)
		case h.count != h.inf:
			return nil, fmt.Errorf("histogram series %s: _count %g != +Inf bucket %g", key, h.count, h.inf)
		}
	}
	for name, typ := range e.Types {
		if !helps[name] {
			return nil, fmt.Errorf("family %s has no HELP", name)
		}
		if typ == "histogram" {
			labelSets[name]["le"] = true
		}
		keys := make([]string, 0, len(labelSets[name]))
		for k := range labelSets[name] {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		e.Labels[name] = keys
	}
	return e, nil
}

// parseSample splits `name{k="v",...} value` into its parts, unescaping
// label values.
func parseSample(line string) (name string, labels [][2]string, value float64, err error) {
	sp := strings.LastIndexByte(line, ' ')
	if sp < 0 {
		return "", nil, 0, fmt.Errorf("no value")
	}
	if value, err = strconv.ParseFloat(line[sp+1:], 64); err != nil {
		return "", nil, 0, fmt.Errorf("bad value: %v", err)
	}
	head := line[:sp]
	brace := strings.IndexByte(head, '{')
	if brace < 0 {
		return head, nil, value, nil
	}
	if !strings.HasSuffix(head, "}") {
		return "", nil, 0, fmt.Errorf("unterminated label set")
	}
	name, rest := head[:brace], head[brace+1:len(head)-1]
	for rest != "" {
		eq := strings.Index(rest, `="`)
		if eq <= 0 {
			return "", nil, 0, fmt.Errorf("bad label pair in %q", rest)
		}
		key := rest[:eq]
		var val strings.Builder
		i := eq + 2
		for ; i < len(rest) && rest[i] != '"'; i++ {
			if rest[i] == '\\' && i+1 < len(rest) {
				i++
				if rest[i] == 'n' {
					val.WriteByte('\n')
					continue
				}
			}
			val.WriteByte(rest[i])
		}
		if i == len(rest) {
			return "", nil, 0, fmt.Errorf("unterminated label value")
		}
		labels = append(labels, [2]string{key, val.String()})
		rest = strings.TrimPrefix(rest[i+1:], ",")
	}
	return name, labels, value, nil
}
