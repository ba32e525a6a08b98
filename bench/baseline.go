package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"text/tabwriter"
	"time"
)

// reportLine is the one-line JSON object a workload run ends with.
type reportLine struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// runChild runs one workload in a child process of this binary, copies
// its report to echo, and returns the parsed last line. It waits for the
// child to end; a child that exits nonzero after printing its report
// (a failed check) is not an error here.
func runChild(o options, echo io.Writer) (*reportLine, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"-workload", o.workload, "-seed", strconv.FormatInt(o.seed, 10),
		"-seconds", strconv.Itoa(o.seconds), "-trace", strconv.Itoa(o.trace), "-out", o.outDir}
	if o.smoke {
		args = append(args, "-smoke")
	}
	var stdout bytes.Buffer
	cmd := exec.Command(exe, args...)
	cmd.Stdout = io.MultiWriter(&stdout, echo)
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var line reportLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		return nil, fmt.Errorf("%s: no report (%v): %v", o.workload, runErr, err)
	}
	return &line, nil
}

// metricRuns is one metric's values over the runs of a baseline.
type metricRuns struct {
	Unit   string    `json:"unit"`
	Values []float64 `json:"values"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
}

// baselineFile is bench/baseline.json: what was run, on what, and every
// end-to-end metric of every workload over the runs.
type baselineFile struct {
	Command    string                           `json:"command"`
	Seed       int64                            `json:"seed"`
	RunSeconds int                              `json:"run_seconds"`
	Runs       int                              `json:"runs"`
	Commit     string                           `json:"commit"`
	Taken      string                           `json:"taken"`
	NProc      int                              `json:"nproc"`
	CPUModel   string                           `json:"cpu_model"`
	GoVersion  string                           `json:"go_version"`
	GOMAXPROCS int                              `json:"gomaxprocs"`
	Workloads  map[string]map[string]metricRuns `json:"workloads"`
}

// writeBaseline makes runs untraced runs of every workload, the workloads
// interleaved so that drift spreads over all of them, and writes the file.
func writeBaseline(o options, path string, runs int) error {
	if runs < 1 {
		return fmt.Errorf("-runs must be at least 1")
	}
	b := baselineFile{
		Command: fmt.Sprintf("bash bench/run.sh -baseline %s -runs %d -seed %d -seconds %d", path, runs, o.seed, o.seconds),
		Seed:    o.seed, RunSeconds: o.seconds, Runs: runs,
		Commit: gitCommit(), Taken: time.Now().UTC().Format(time.RFC3339),
		NProc: runtime.NumCPU(), CPUModel: cpuModel(), GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Workloads: map[string]map[string]metricRuns{},
	}
	o.trace = 0
	for i := 0; i < runs; i++ {
		for _, w := range workloads {
			o.workload = w.name
			line, err := runChild(o, io.Discard)
			if err != nil {
				return err
			}
			if !line.Correct {
				return fmt.Errorf("%s run %d: %d of %d operations failed", w.name, i+1, line.Failed, line.Attempted)
			}
			if b.Workloads[w.name] == nil {
				b.Workloads[w.name] = map[string]metricRuns{}
			}
			for name, m := range line.Metrics {
				mr := b.Workloads[w.name][name]
				mr.Unit = m.Unit
				mr.Values = append(mr.Values, m.Value)
				b.Workloads[w.name][name] = mr
			}
			fmt.Printf("run %d/%d %s ok\n", i+1, runs, w.name)
		}
	}
	for _, ms := range b.Workloads {
		for name, mr := range ms {
			mr.Median = median(mr.Values)
			mr.Q1, mr.Q3 = quartiles(mr.Values)
			ms[name] = mr
		}
	}
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func readBaseline(path string) (*baselineFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b baselineFile
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &b, nil
}

// compareFiles prints, for every workload and end-to-end metric the two
// files share, both medians and the verdict of compareRuns, and fails if
// any metric regressed.
func compareFiles(w io.Writer, basePath, changePath string) error {
	base, err := readBaseline(basePath)
	if err != nil {
		return err
	}
	change, err := readBaseline(changePath)
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tbase median [q1, q3]\tchange median\tchange\tbound\tverdict")
	regressed := 0
	for _, wl := range workloads {
		for _, d := range endToEnd {
			b, okb := base.Workloads[wl.name][d.name]
			c, okc := change.Workloads[wl.name][d.name]
			if !okb || !okc {
				continue
			}
			v := compareRuns(b.Values, c.Values, d.better == "lower", d.bound)
			if v == vRegressed {
				regressed++
			}
			mb, mc := median(b.Values), median(c.Values)
			q1, q3 := quartiles(b.Values)
			fmt.Fprintf(tw, "%s\t%s\t%.6g [%.6g, %.6g] %s\t%.6g\t%+.1f%%\t%.0f%%\t%s\n",
				wl.name, d.name, mb, q1, q3, d.unit, mc, 100*(mc-mb)/mb, 100*d.bound, v)
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if regressed > 0 {
		return fmt.Errorf("%d metrics regressed beyond their bound", regressed)
	}
	return nil
}
