// Command restorebench is the repository's benchmark: it runs the
// workloads below against the ReStore reproduction, checks every
// query's output against a reuse-off reference, and prints the
// end-to-end metrics (or, with -trace 1, the per-layer metrics) by name
// with their units. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
//
//	cold-150gb      PigMix 150GB instance, a fresh System per round, 1 client
//	warm-mix        PigMix 15GB instance, warmed repository, 2 HTTP clients, Zipf(1.1) mix
//	append-durable  net-traffic log with the durable repository, append a day
//	                then N1–N4 per round, 1 client (not in BENCHMARK.json; see README.md)
//
// Run it through run.sh from the repository root, which builds it:
//
//	bash restorebench/run.sh --workload cold-150gb --seed 1 --seconds 25 --trace 0
//
// README.md in this directory describes the workloads, the metrics and
// which end-to-end metric each per-layer metric should move.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

var workloads = map[string]func(*env) (*outcome, error){
	"cold-150gb":     runCold,
	"warm-mix":       runWarm,
	"append-durable": runAppend,
}

var workloadOrder = []string{"cold-150gb", "warm-mix", "append-durable"}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("restorebench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	workload := fl.String("workload", "all", "cold-150gb, warm-mix, append-durable, or all")
	seed := fl.Int64("seed", 1, "seed of the generated inputs and of the query mix")
	secs := fl.Int("seconds", 25, "length of the timed window")
	trace := fl.Int("trace", 0, "1: traced run printing per-layer metrics")
	traceDir := fl.String("trace-dir", ".bench_build/traces", "directory the traced run writes its spans to")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	names := workloadOrder
	if *workload != "all" {
		if workloads[*workload] == nil {
			fmt.Fprintf(stderr, "restorebench: unknown workload %q\n", *workload)
			return 2
		}
		names = []string{*workload}
	}
	if *secs < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "restorebench: -seconds must be ≥ 1 and -trace 0 or 1")
		return 2
	}

	code := 0
	for _, name := range names {
		e := &env{seed: *seed, seconds: time.Duration(*secs) * time.Second, traced: *trace == 1}
		if e.traced {
			e.rec = &recorder{}
		}
		o, err := workloads[name](e)
		if err != nil {
			fmt.Fprintf(stderr, "restorebench: %s: %v\n", name, err)
			return 1
		}
		res := report(stdout, name, e, o)
		if e.traced {
			path := filepath.Join(*traceDir, fmt.Sprintf("%s-seed%d.json", name, *seed))
			if err := e.rec.write(path); err != nil {
				fmt.Fprintf(stderr, "restorebench: writing spans: %v\n", err)
				return 1
			}
			fmt.Fprintf(stdout, "spans: %s\n", path)
		}
		if err := writeResult(stdout, res); err != nil {
			return 1
		}
		if !res.Correct {
			code = 1
		}
	}
	return code
}
