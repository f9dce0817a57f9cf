package main

import "testing"

// TestParseOnly checks that -only accepts the targets main runs and rejects
// any other name: retired studies and typos fail instead of running nothing.
func TestParseOnly(t *testing.T) {
	for _, c := range []struct {
		only string
		ok   bool
	}{
		{"", true},
		{"reduction,sketch,load", true},
		{"reduction,sketch,load,estimators", true},
		{"table1, FIG4A,ablations", true},
		{"frontier", false},
		{"bicc", false},
		{"fig4x", false},
		{"frontier,fig4a", false},
		{"sketch,", false},
	} {
		want, err := parseOnly(c.only)
		if (err == nil) != c.ok {
			t.Errorf("parseOnly(%q) error = %v, want ok=%v", c.only, err, c.ok)
		}
		if err == nil && c.only != "" && len(want) == 0 {
			t.Errorf("parseOnly(%q) selected nothing", c.only)
		}
	}
}
