package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// setupsPerGroup is how many times a run brings its daemons up in each of
// its three groups of set-ups; setup_s is the median of all of them. One
// set-up takes 5 to 15 ms, so many are cheap. The machine's speed at
// starting processes drifts over seconds, and a median of set-ups spread
// over the run is steadier than one of set-ups taken back to back.
const setupsPerGroup = 7

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the benchmark's last stdout line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench holds what one invocation needs: where the checkout is, the scratch
// directory of this run, and the span recorder of a traced run.
type bench struct {
	root    string
	aergiad string
	work    string
	seed    uint64
	seconds time.Duration
	spans   *recorder
	notes   []string
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		root         = flag.String("root", ".", "checkout root (holds .bench_build/aergiad)")
		workloadName = flag.String("workload", "", "workload name: fl-sweep or tiny-local")
		seed         = flag.Uint64("seed", defaultSeed, "workload seed; job seeds and samples derive from it")
		seconds      = flag.Int("seconds", 32, "length of the measured phase in seconds")
		traceFlag    = flag.Int("trace", 0, "1 runs the traced per-layer harness instead of the end-to-end phase")
		writeDigests = flag.Bool("write-digests", false, "recompute digests.json for the default seed and exit")
	)
	flag.Parse()
	if *writeDigests {
		if err := writeDigestFile(filepath.Join(*root, "perfbench", "digests.json")); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	w, ok := workloads[*workloadName]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want %s)\n", *workloadName, workloadNames())
		return 2
	}
	if *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	b, err := newBench(*root, *seed, time.Duration(*seconds)*time.Second, *traceFlag == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	var rep report
	if *traceFlag == 1 {
		rep, err = b.traced(w)
	} else {
		rep, err = b.endToEnd(w)
	}
	if err == nil && b.spans != nil {
		err = b.spans.dump(filepath.Join(b.root, ".bench_build", "spans",
			fmt.Sprintf("%s-seed%d.jsonl", w.name, b.seed)))
	}
	if err == nil {
		err = os.RemoveAll(b.work)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	printReport(w.name, b.notes, rep)
	if !rep.Correct {
		fmt.Fprintf(os.Stderr, "perfbench: output check failed: %d of %d jobs failed or mismatched\n",
			rep.Failed, rep.Attempted)
		return 1
	}
	return 0
}

func newBench(root string, seed uint64, seconds time.Duration, traced bool) (*bench, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	bin := filepath.Join(root, ".bench_build", "aergiad")
	if _, err := os.Stat(bin); err != nil {
		return nil, fmt.Errorf("daemon binary missing (run through perfbench/run.sh): %w", err)
	}
	if _, err := os.Stat(filepath.Join(root, "cmd", "aergiad")); err != nil {
		return nil, errors.New("not run from the root of an aergia checkout")
	}
	tmp := filepath.Join(root, ".bench_build", "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(tmp, "run-")
	if err != nil {
		return nil, err
	}
	b := &bench{root: root, aergiad: bin, work: work, seed: seed, seconds: seconds}
	if traced {
		b.spans = newRecorder()
	}
	return b, nil
}

// note adds a human-readable line to the report.
func (b *bench) note(format string, args ...any) {
	b.notes = append(b.notes, fmt.Sprintf(format, args...))
}

// printReport writes every metric with its unit, then the JSON line.
func printReport(workload string, notes []string, rep report) {
	fmt.Printf("workload %s\n", workload)
	for _, n := range notes {
		fmt.Println("  " + n)
	}
	names := make([]string, 0, len(rep.Metrics))
	for name := range rep.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := rep.Metrics[name]
		fmt.Printf("%-34s %16.6g %s\n", name, m.Value, m.Unit)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		panic(err) // a map of finite floats always marshals
	}
	fmt.Println(string(line))
}
