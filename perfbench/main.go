// Command perfbench is the repository's two-clock offload benchmark. It runs
// one seeded workload through the public machine, offload, gateway and sched
// APIs, checks every result, and prints its metrics as one JSON object on
// the last line of standard output.
//
//	perfbench --workload pingpong --seed 1 --seconds 10 --trace 0
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the traced,
// profiled run and prints the per-layer metrics. See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"slices"
	"time"

	"hamoffload/internal/simtime"
)

func main() {
	name := flag.String("workload", "", "workload: pingpong, veo_bulk, serving or gray")
	seed := flag.Uint64("seed", 1, "seed of the generated inputs")
	seconds := flag.Float64("seconds", 10, "host seconds to measure for")
	traced := flag.Int("trace", 0, "1 runs the traced run and prints per-layer metrics")
	spans := flag.String("spans", "", "with --trace 1, write the host-time spans of the first profiled rep to this JSON file")
	kind := flag.String("rep", "", "internal: run one rep of this kind and print its summary")
	start := flag.Int64("start", 0, "internal: calibrated start of the timed phase, simulated ps")
	flag.Parse()
	w, ok := findWorkload(*name)
	validKind := slices.Contains([]string{"", kindPlain, kindProfiled, kindArmed, kindCalibrate}, *kind)
	if !ok || !validKind || (*traced != 0 && *traced != 1) || *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload pingpong|veo_bulk|serving|gray --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	if *kind != "" {
		if err := repMain(w, *seed, *kind, simtime.Time(*start), *spans); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			if errors.Is(err, errCheck) {
				os.Exit(exitCheck)
			}
			os.Exit(1)
		}
		return
	}
	budget := time.Duration(*seconds * float64(time.Second))
	var res result
	var err error
	if *traced == 1 {
		res, err = tracedRun(w, *seed, budget, false, *spans)
	} else {
		res, err = timedRun(w, *seed, budget, false)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		if !errors.Is(err, errCheck) {
			os.Exit(1)
		}
		res.Correct = false
	}
	out, jerr := json.Marshal(res)
	if jerr != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", jerr)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

// result is the benchmark's output line.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name, unit string, v float64) { m[name] = metric{Value: v, Unit: unit} }
