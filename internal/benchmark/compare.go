package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

func readResultSet(path string) (*resultSet, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var set resultSet
	if err := json.Unmarshal(data, &set); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(set.Runs) == 0 {
		return nil, fmt.Errorf("%s: no runs", path)
	}
	return &set, nil
}

// verdict judges one end-to-end metric of one workload: base and cand are
// its values over the runs of the baseline and of the candidate. The
// candidate is worse when its median loses more than the bound against
// the baseline's; where either side's own run-to-run spread exceeds the
// bound the pair cannot be told apart at that resolution and the metric
// is unresolved, whichever way the medians point.
func verdict(d metricDef, base, cand []float64) (loss float64, word string) {
	b, c := median(base), median(cand)
	if b != 0 {
		loss = (c - b) / b
		if d.Better == "higher" {
			loss = -loss
		}
	}
	switch {
	case quartileSpread(base) > d.Bound || quartileSpread(cand) > d.Bound:
		word = "unresolved"
	case loss > d.Bound:
		word = "worse"
	default:
		word = "ok"
	}
	return loss, word
}

// compareFiles prints, per workload and end-to-end metric, both medians,
// the relative loss of the candidate, the bound and a verdict. It returns
// the process exit code: 1 when any metric is worse or a run failed its
// correctness gate.
func compareFiles(w io.Writer, basePath, candPath string) int {
	base, err := readResultSet(basePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	cand, err := readResultSet(candPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	fmt.Fprintf(w, "baseline  %s (git %s, %d run(s) per workload)\n", basePath, base.GitSHA, base.Repeat)
	fmt.Fprintf(w, "candidate %s (git %s, %d run(s) per workload)\n", candPath, cand.GitSHA, cand.Repeat)
	fmt.Fprintf(w, "%-16s %-14s %14s %14s %5s %9s %7s  %s\n", "workload", "metric", "baseline", "candidate", "unit", "loss", "bound", "verdict")
	status := 0
	for _, wl := range workloads {
		for _, d := range endToEnd {
			bv, cv := base.values(wl.Name, d.Name), cand.values(wl.Name, d.Name)
			if len(bv) == 0 || len(cv) == 0 {
				fmt.Fprintf(w, "%-16s %-14s missing from one side\n", wl.Name, d.Name)
				status = 1
				continue
			}
			loss, word := verdict(d, bv, cv)
			if word == "worse" {
				status = 1
			}
			fmt.Fprintf(w, "%-16s %-14s %14.4f %14.4f %5s %+8.2f%% %6.1f%%  %s\n",
				wl.Name, d.Name, median(bv), median(cv), d.Unit, 100*loss, 100*d.Bound, word)
		}
	}
	for _, set := range []*resultSet{base, cand} {
		for _, r := range set.Runs {
			if r.Failed != 0 {
				fmt.Fprintf(w, "%s seed %d: %d failed operation(s)\n", r.Workload, r.Seed, r.Failed)
				status = 1
			}
		}
	}
	return status
}
