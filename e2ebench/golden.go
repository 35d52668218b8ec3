package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
)

// golden holds the results a workload must reproduce exactly, keyed by
// input:
//
//	sweeps       m<member>/<instance>   SWAPs of lightsabre, ml-qls, qmap, tket
//	             m<member>/work/<tool>  decisions, candidates, restarts over one pass
//	certify      m<member>/<device>/<instance>  SAT conflicts, learned, restarts
//	serve-route  <suite hash>/<instance>        winning ratio
//
// Every workload draws its inputs from a fixed pool, so one
// committed file per workload covers every seed. The files are written
// by --pin; a change to the program that changes any of these values
// fails the benchmark until its diff re-pins them.
type golden map[string][]float64

func goldenPath(workload string) string {
	return filepath.Join("e2ebench", "golden", workload+".json")
}

// checkGolden compares a run's record with the workload's golden file.
// A value that differs, or one the file lacks, is a failure, not noise.
func checkGolden(workload string, record golden) ([]string, error) {
	b, err := os.ReadFile(goldenPath(workload))
	if err != nil {
		return nil, err
	}
	var want golden
	if err := json.Unmarshal(b, &want); err != nil {
		return nil, fmt.Errorf("%s: %w", goldenPath(workload), err)
	}
	var drift []string
	for _, k := range keys(record) {
		w, ok := want[k]
		switch {
		case !ok:
			drift = append(drift, fmt.Sprintf("determinism: %s has no golden value (re-pin with --pin)", k))
		case !slices.Equal(w, record[k]):
			drift = append(drift, fmt.Sprintf("determinism: %s is %v, golden %v", k, record[k], w))
		}
	}
	return drift, nil
}

// writeGolden writes g as the workload's golden file, one key a line.
func writeGolden(workload string, g golden) error {
	var buf bytes.Buffer
	buf.WriteString("{\n")
	for i, k := range keys(g) {
		kb, err := json.Marshal(k)
		if err != nil {
			return err
		}
		vb, err := json.Marshal(g[k])
		if err != nil {
			return err
		}
		sep := ","
		if i == len(g)-1 {
			sep = ""
		}
		fmt.Fprintf(&buf, "  %s: %s%s\n", kb, vb, sep)
	}
	buf.WriteString("}\n")
	if err := os.MkdirAll(filepath.Dir(goldenPath(workload)), 0o755); err != nil {
		return err
	}
	return os.WriteFile(goldenPath(workload), buf.Bytes(), 0o644)
}
