package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// declaration is BENCHMARK.json.
type declaration struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		metricSpec
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadDeclaration(path string) (*declaration, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d declaration
	if err := json.Unmarshal(b, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &d, nil
}

// readRunSet reads a results file: one run document per line.
func readRunSet(path string) ([]runDoc, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var docs []runDoc
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var d runDoc
		if err := json.Unmarshal(sc.Bytes(), &d); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		docs = append(docs, d)
	}
	return docs, sc.Err()
}

// verdict is the comparison of one (end-to-end metric, workload) pair
// between a parent run set A and a change's run set B.
type verdict struct {
	Workload, Metric string
	A, B             []float64
	Won              int // pairs in which B read better than A
	Bound            float64
	Result           string
}

// compareSets judges every (end-to-end metric, workload) pair by the rule
// for small sandboxes: runs are paired in file order; the change improved a
// metric when it won at least nine tenths of the pairs and the medians differ
// by more than the parent's quartile distance; it is worse when its median is
// worse than the parent's by more than the bound; it is unresolved when
// either side's quartile spread exceeds the bound, unless every run of the
// change reads better than every run of the parent; otherwise it is
// unchanged.
func compareSets(decl *declaration, a, b []runDoc) []verdict {
	var out []verdict
	for _, w := range decl.Workloads {
		for _, m := range decl.EndToEnd {
			av, bv := values(a, w.Name, m.Name), values(b, w.Name, m.Name)
			if len(av) == 0 || len(bv) == 0 {
				continue
			}
			v := verdict{Workload: w.Name, Metric: m.Name, A: av, B: bv, Bound: m.Bound}
			sign := 1.0
			if m.Better == "lower" {
				sign = -1
			}
			pairs := min(len(av), len(bv))
			for k := range pairs {
				if sign*(bv[k]-av[k]) > 0 {
					v.Won++
				}
			}
			ma, mb := median(av), median(bv)
			q1, q3 := quartiles(av)
			worse := -sign * (mb - ma) / math.Abs(ma)
			switch {
			case float64(v.Won) >= 0.9*float64(pairs) && sign*(mb-ma) > q3-q1:
				v.Result = "improved"
			case worse > m.Bound:
				v.Result = "worse"
			case math.Max(spread(av), spread(bv)) > m.Bound && !allBetter(av, bv, sign):
				v.Result = "unresolved"
			default:
				v.Result = "unchanged"
			}
			out = append(out, v)
		}
	}
	return out
}

// values collects one metric of one workload's untraced runs, in file order.
func values(docs []runDoc, workload, metric string) []float64 {
	var out []float64
	for _, d := range docs {
		if m, ok := d.Metrics[metric]; ok && d.Workload == workload && !d.Trace {
			out = append(out, m.Value)
		}
	}
	return out
}

func allBetter(a, b []float64, sign float64) bool {
	for _, x := range a {
		for _, y := range b {
			if sign*(y-x) <= 0 {
				return false
			}
		}
	}
	return true
}

func printVerdicts(w io.Writer, vs []verdict) {
	fmt.Fprintf(w, "%-13s %-17s %-32s %-32s %8s %7s %6s  %s\n",
		"workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "change", "B won", "bound", "verdict")
	for _, v := range vs {
		ma := median(v.A)
		fmt.Fprintf(w, "%-13s %-17s %-32s %-32s %+7.2f%% %3d/%-3d %5.0f%%  %s\n",
			v.Workload, v.Metric, summary(v.A), summary(v.B), (median(v.B)-ma)/math.Abs(ma)*100,
			v.Won, min(len(v.A), len(v.B)), v.Bound*100, v.Result)
	}
}

func summary(xs []float64) string {
	q1, q3 := quartiles(xs)
	return fmt.Sprintf("%.5g [%.5g, %.5g]", median(xs), q1, q3)
}
