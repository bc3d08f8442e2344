package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"

	"littleslaw/bench/gen"
)

// benchmarkSpec is the part of BENCHMARK.json -compare needs.
type benchmarkSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// readResults loads a results file (one JSON result per line) and groups
// its untraced runs by workload.
func readResults(path string) (map[string][]*result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	out := map[string][]*result{}
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(nil, 1<<20)
	for line := 1; sc.Scan(); line++ {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		var r result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if !r.Traced {
			out[r.Workload] = append(out[r.Workload], &r)
		}
	}
	return out, sc.Err()
}

// medianOf is the median of one metric over a workload's runs.
func medianOf(runs []*result, name string) float64 {
	var v []float64
	for _, r := range runs {
		v = append(v, r.Metrics[name].Value)
	}
	return median(v)
}

// compareFiles prints, per (workload, end-to-end metric), side A, side B,
// how much worse B is and the bound, and reports whether B is acceptable:
// no metric worse than its bound, no exact metric different, every run
// correct. Several runs of a workload in one file count by their median.
func compareFiles(w io.Writer, specPath, pathA, pathB string) (bool, error) {
	raw, err := os.ReadFile(specPath)
	if err != nil {
		return false, err
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return false, fmt.Errorf("%s: %w", specPath, err)
	}
	a, err := readResults(pathA)
	if err != nil {
		return false, err
	}
	b, err := readResults(pathB)
	if err != nil {
		return false, err
	}
	ok := true
	fmt.Fprintf(w, "%-13s %-18s %14s %14s %9s %7s\n", "workload", "metric", "A", "B", "worse by", "bound")
	for _, wl := range gen.Workloads() {
		ra, rb := a[wl], b[wl]
		if len(ra) == 0 && len(rb) == 0 {
			continue
		}
		if len(ra) == 0 || len(rb) == 0 {
			fmt.Fprintf(w, "%-13s present on one side only (%d vs %d runs)\n", wl, len(ra), len(rb))
			ok = false
			continue
		}
		for _, r := range append(append([]*result(nil), ra...), rb...) {
			if !r.Correct {
				fmt.Fprintf(w, "%-13s seed %d: incorrect run: %v\n", wl, r.Seed, r.Violations)
				ok = false
			}
		}
		for _, m := range spec.EndToEnd {
			va, vb := medianOf(ra, m.Name), medianOf(rb, m.Name)
			worse := 0.0
			if va != 0 {
				worse = (vb - va) / va
				if m.Better == "higher" {
					worse = -worse
				}
			}
			verdict := ""
			if worse > m.Bound {
				verdict, ok = "  REGRESSION", false
			}
			fmt.Fprintf(w, "%-13s %-18s %14.6g %14.6g %+8.1f%% %6.0f%%%s\n",
				wl, m.Name, va, vb, 100*worse, 100*m.Bound, verdict)
		}
		for _, d := range exact {
			va, vb := ra[0].Exact[d.name], rb[0].Exact[d.name]
			same := true
			for _, r := range ra {
				same = same && r.Exact[d.name] == va
			}
			for _, r := range rb {
				same = same && r.Exact[d.name] == va
			}
			verdict := ""
			if !same {
				verdict, ok = "  DIFFERS", false
			}
			fmt.Fprintf(w, "%-13s %-18s %14.6g %14.6g %9s %7s%s\n", wl, d.name, va, vb, "", "exact", verdict)
		}
	}
	return ok, nil
}
