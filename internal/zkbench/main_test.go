package main

import (
	"strings"
	"testing"
)

func TestAssertFasterParse(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want fasterAssertion
	}{
		{"msm/fast/n10<msm/pippenger/n10/w4/grouped", fasterAssertion{"msm/fast/n10", "msm/pippenger/n10/w4/grouped", 1}},
		{"e2e/verify/mu12*4<e2e/prove/mu12", fasterAssertion{"e2e/verify/mu12", "e2e/prove/mu12", 4}},
		{"ff/fr/mul*1.4<ff/fr/mul-baseline", fasterAssertion{"ff/fr/mul", "ff/fr/mul-baseline", 1.4}},
		{"service/fairshare/mu8/contended*0.35<service/fairshare/mu8/solo", fasterAssertion{"service/fairshare/mu8/contended", "service/fairshare/mu8/solo", 0.35}},
	} {
		var l assertList
		if err := l.Set(tc.in); err != nil {
			t.Fatalf("%q: %v", tc.in, err)
		}
		if len(l) != 1 || l[0] != tc.want {
			t.Fatalf("%q parsed as %+v, want %+v", tc.in, l, tc.want)
		}
		if l.String() != tc.in {
			t.Errorf("%q prints back as %q", tc.in, l.String())
		}
	}
	for _, bad := range []string{
		"a/b",      // no '<'
		"<b",       // empty left
		"a<",       // empty right
		"a*0<b",    // zero factor
		"a*-2<b",   // negative factor
		"a*fast<b", // non-numeric factor
		"a*<b",     // empty factor
	} {
		var l assertList
		if err := l.Set(bad); err == nil {
			t.Errorf("%q: accepted as %+v", bad, l)
		}
	}
}

func TestAssertFasterCheck(t *testing.T) {
	recs := []record{{Name: "fast", Reps: 1, Median: 100}, {Name: "slow", Reps: 1, Median: 150}}

	if err := (fasterAssertion{"fast", "slow", 1.4}).check(recs); err != nil {
		t.Errorf("100ns×1.4 < 150ns must hold: %v", err)
	}
	if err := (fasterAssertion{"fast", "slow", 1.5}).check(recs); err == nil {
		t.Error("100ns×1.5 = 150ns is not strictly below 150ns")
	}
	if err := (fasterAssertion{"slow", "fast", 1}).check(recs); err == nil {
		t.Error("reversed pair must fail")
	}
	err := (fasterAssertion{"fast", "renamed", 1}).check(recs)
	if err == nil || !strings.Contains(err.Error(), `"renamed" not in this run`) {
		t.Errorf("a name absent from the run must fail as such, got %v", err)
	}
}
