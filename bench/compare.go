package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"text/tabwriter"
)

// Comparing two sets of runs of the same benchmark: the baseline's and a
// change's (or two sets of runs of the same code, to check that the
// benchmark agrees with itself). Each file holds the records of one or
// more runs, as `bench >> file` prints them.

// readRuns returns, per workload and end-to-end metric, the value from
// every end-to-end record in the file.
func readRuns(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	runs := map[string]map[string][]float64{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for line := 1; sc.Scan(); line++ {
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		// Per-layer records have no bounds, and the contract line that
		// ends a one-workload run repeats the record before it.
		if rec.Workload == "" || rec.Trace != 0 {
			continue
		}
		if runs[rec.Workload] == nil {
			runs[rec.Workload] = map[string][]float64{}
		}
		for name, v := range rec.Metrics {
			runs[rec.Workload][name] = append(runs[rec.Workload][name], v.Value)
		}
	}
	return runs, sc.Err()
}

// spread is the run-to-run spread of one side as a share of its median:
// the distance between the first and third quartile, or between the
// extremes when there are too few runs for quartiles.
func spread(vals []float64) float64 {
	median := percentile(vals, 50)
	if median == 0 || len(vals) < 2 {
		return 0
	}
	lo, hi := percentile(vals, 25), percentile(vals, 75)
	if len(vals) < 4 {
		lo, hi = percentile(vals, 0), percentile(vals, 100)
	}
	return (hi - lo) / median
}

// verdict applies a metric's ledger bound to the baseline's runs a and the
// change's runs b. worsening is how much worse b's median is than a's, as
// a share of a's (negative when b is better). When either side's spread
// exceeds the bound and the two sides' runs overlap, the runs cannot tell
// a move of the size of the bound from noise: unresolved.
func verdict(m gated, a, b []float64) string {
	medA, medB := percentile(a, 50), percentile(b, 50)
	worsening := 0.0
	if medA != 0 {
		worsening = (medB - medA) / medA
	}
	if m.better == "higher" {
		worsening = -worsening
	}
	overlap := percentile(a, 0) <= percentile(b, 100) && percentile(b, 0) <= percentile(a, 100)
	switch {
	case max(spread(a), spread(b)) > m.ledger && overlap:
		return "unresolved"
	case worsening > m.ledger:
		return "worse"
	case worsening < -m.ledger:
		return "better"
	}
	return "same"
}

// compareFiles prints one row per workload and end-to-end metric and
// reports whether any row is worse.
func compareFiles(w io.Writer, before, after string) (worse bool, err error) {
	a, err := readRuns(before)
	if err != nil {
		return false, err
	}
	b, err := readRuns(after)
	if err != nil {
		return false, err
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tbefore\tafter\tchange\tspread\tbound\truns\tverdict")
	names := make([]string, 0, len(a))
	for name := range a {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		for _, m := range endToEnd {
			va, vb := a[name][m.name], b[name][m.name]
			if len(va) == 0 || len(vb) == 0 {
				return false, fmt.Errorf("%s %s: missing on one side", name, m.name)
			}
			v := verdict(m, va, vb)
			worse = worse || v == "worse"
			fmt.Fprintf(tw, "%s\t%s\t%.5g\t%.5g\t%+.1f%%\t%.1f%%\t%.0f%%\t%d/%d\t%s\n", name, m.name,
				percentile(va, 50), percentile(vb, 50), 100*(percentile(vb, 50)/percentile(va, 50)-1),
				100*max(spread(va), spread(vb)), 100*m.ledger, len(va), len(vb), v)
		}
	}
	return worse, tw.Flush()
}
