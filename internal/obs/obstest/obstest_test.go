package obstest

import (
	"reflect"
	"strings"
	"testing"
)

const good = `# HELP a_total A.
# TYPE a_total counter
a_total{shard="s0"} 3
# HELP d_seconds D.
# TYPE d_seconds histogram
d_seconds_bucket{k="x",le="0.1"} 1
d_seconds_bucket{k="x",le="1"} 2
d_seconds_bucket{k="x",le="+Inf"} 2
d_seconds_sum{k="x"} 0.5
d_seconds_count{k="x"} 2
`

func TestParseGood(t *testing.T) {
	e, err := Parse(good)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := e.Families(), []string{"a_total counter shard", "d_seconds histogram k,le"}; !reflect.DeepEqual(got, want) {
		t.Errorf("families = %q, want %q", got, want)
	}
	if e.Values[`a_total{shard="s0"}`] != 3 || e.Values[`d_seconds_count{k="x"}`] != 2 {
		t.Errorf("values = %v", e.Values)
	}
}

// TestParseRejects breaks one rule at a time; each must be reported.
func TestParseRejects(t *testing.T) {
	for name, edit := range map[string][2]string{
		"le not increasing":   {`le="1"} 2`, `le="0.05"} 2`},
		"bucket decreases":    {`le="1"} 2`, `le="1"} 0`},
		"count != +Inf":       {`d_seconds_count{k="x"} 2`, `d_seconds_count{k="x"} 3`},
		"no +Inf":             {"d_seconds_bucket{k=\"x\",le=\"+Inf\"} 2\n", ""},
		"no _count":           {"d_seconds_count{k=\"x\"} 2\n", ""},
		"second TYPE":         {"# TYPE a_total counter\n", "# TYPE a_total counter\n# TYPE a_total counter\n"},
		"second HELP":         {"# HELP a_total A.\n", "# HELP a_total A.\n# HELP a_total A.\n"},
		"no HELP":             {"# HELP a_total A.\n", ""},
		"sample before TYPE":  {"# TYPE a_total counter\n", ""},
		"foreign sample":      {`a_total{shard="s0"} 3`, `b_total 3`},
		"family split":        {"d_seconds_count{k=\"x\"} 2\n", "d_seconds_count{k=\"x\"} 2\n# HELP a_total A.\n"},
		"duplicate sample":    {`a_total{shard="s0"} 3`, "a_total{shard=\"s0\"} 3\na_total{shard=\"s0\"} 4"},
		"unterminated labels": {`a_total{shard="s0"} 3`, `a_total{shard="s0" 3`},
	} {
		text := strings.Replace(good, edit[0], edit[1], 1)
		if text == good {
			t.Fatalf("%s: edit did not apply", name)
		}
		if _, err := Parse(text); err == nil {
			t.Errorf("%s: Parse accepted\n%s", name, text)
		}
	}
}
