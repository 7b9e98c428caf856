package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// Closure tolerances of the traced run. By construction every instant
// of a query is charged to exactly one layer, so the layer self times
// sum to the client-observed latency up to rounding (closureTolerance);
// benchTolerance bounds the part no layer's span covers, the client
// loop's own time between its calls into the program.
const (
	closureTolerance = 0.001
	benchTolerance   = 0.05
)

const mib = 1 << 20

// report prints the human-readable summary of one workload run and
// returns its result line: the end-to-end metrics, or with tracing the
// per-layer ones. A run whose outputs mismatch, or whose traced self
// times do not close on the latency, is not correct.
func report(w io.Writer, name string, e *env, o *outcome) result {
	var done, traced, untraced []queryRecord
	failed, mismatched := 0, 0
	wrong, inexact := map[string]int{}, map[string]int{}
	for _, r := range o.queries {
		switch {
		case r.failed:
			failed++
			continue
		case !r.ok:
			mismatched++
			wrong[r.name]++
		case !r.exact:
			inexact[r.name]++
		}
		done = append(done, r)
		if r.traced {
			traced = append(traced, r)
		} else {
			untraced = append(untraced, r)
		}
	}

	fmt.Fprintf(w, "== %s  seed %d  %v  trace %v\n", name, e.seed, e.seconds, e.traced)
	inputs, _ := json.Marshal(o.inputs)
	fmt.Fprintf(w, "inputs (content hashes): %s\n", inputs)
	for _, n := range o.notes {
		fmt.Fprintln(w, n)
	}
	c := o.counters
	fmt.Fprintf(w, "window counters: %d probes, %d batch-cache evictions (%.1f MB resident at the end), %d delta refreshes, %d journal appends, %d compactions\n",
		c.probes, c.evictions, float64(c.resident)/mib, c.refreshes, c.journal, c.compactions)
	fmt.Fprintf(w, "setup s: %v\n", summarize(seconds(o.setups)))
	fmt.Fprintf(w, "round s: %v\n", summarize(seconds(o.rounds)))
	fmt.Fprintf(w, "latency ms: %v\n", summarize(latenciesMs(done)))
	printLatencyByQuery(w, done)
	fmt.Fprintf(w, "fail_ratio: %.4g (%d errors + %d wrong outputs of %d attempted)\n",
		ratio(float64(failed+mismatched), float64(len(o.queries))), failed, mismatched, len(o.queries))
	if len(wrong) > 0 {
		fmt.Fprintf(w, "outputs differing from the reuse-off reference, by query: %v\n", wrong)
	}
	if len(inexact) > 0 {
		fmt.Fprintf(w, "outputs equal to the reference only to %d significant float digits, by query: %v\n", floatDigits, inexact)
	}

	res := result{Correct: mismatched == 0, Attempted: len(o.queries), Failed: failed + mismatched}
	if e.traced {
		var closed bool
		res.Metrics, closed = perLayer(w, o, done, traced, untraced)
		res.Correct = res.Correct && closed
	} else {
		res.Metrics = endToEnd(o, done)
	}
	printMetrics(w, res.Metrics)
	return res
}

func printLatencyByQuery(w io.Writer, done []queryRecord) {
	byQuery := map[string][]float64{}
	for _, r := range done {
		byQuery[r.name] = append(byQuery[r.name], ms(r.latency))
	}
	names := make([]string, 0, len(byQuery))
	for q := range byQuery {
		names = append(names, q)
	}
	sort.Strings(names)
	fmt.Fprint(w, "latency ms by query, median (n):")
	for _, q := range names {
		fmt.Fprintf(w, " %s %.4g (%d)", q, median(byQuery[q]), len(byQuery[q]))
	}
	fmt.Fprintln(w)
}

// endToEnd computes the metrics of an untraced run.
func endToEnd(o *outcome, done []queryRecord) map[string]metric {
	sorted := sortedCopy(latenciesMs(done))
	sim := 0.0
	for _, r := range done {
		sim += r.sim.Seconds()
	}
	p50 := percentile(sorted, 50)
	if len(o.passLatency) > 0 {
		p50 = median(o.passLatency)
	}
	n := float64(len(done))
	return map[string]metric{
		"setup_s":                   {median(seconds(o.setups)), "s"},
		"round_s":                   {median(seconds(o.rounds)), "s"},
		"qps":                       {ratio(n, o.elapsed.Seconds()), "1/s"},
		"p50_ms":                    {p50, "ms"},
		"p95_ms":                    {percentile(sorted, 95), "ms"},
		"sim_s_per_query":           {ratio(sim, n), "s"},
		"cpu_ms_per_query":          {ratio(ms(o.cpu), n), "ms"},
		"repo_bytes_per_input_byte": {median(o.repo), "ratio"},
		"heap_peak_mb":              {float64(o.heapPeak) / mib, "MB"},
	}
}

// perLayer computes the metrics of a traced run and prints the layer
// self times with their closure on the client latency, which it
// reports. Span-derived metrics come from the traced queries, counters
// from the whole window.
func perLayer(w io.Writer, o *outcome, done, traced, untraced []queryRecord) (map[string]metric, bool) {
	n := float64(len(done))
	nt := float64(len(traced))
	c := o.counters
	var p progStats
	var snap time.Duration
	var latSum float64
	self := map[string]float64{}
	selfSamples := map[string][]float64{}
	var overhead []float64
	jobsRun, jobsReused, jobsTotal, rewrites := 0, 0, 0, 0
	for _, r := range done {
		jobsRun += r.jobsRun
		jobsReused += r.jobsReused
		jobsTotal += r.jobsTotal
		rewrites += r.rewrites
	}
	for _, r := range traced {
		p.compile += r.prog.compile
		p.probe += r.prog.probe
		p.claimWait += r.prog.claimWait
		p.refresh += r.prog.refresh
		p.exec += r.prog.exec
		p.commit += r.prog.commit
		p.candidates += r.prog.candidates
		p.wins += r.prog.wins
		snap += r.snapshot
		latSum += ms(r.latency)
		overhead = append(overhead, ms(r.latency)-r.prog.submit)
		for _, l := range layers {
			v := r.self[l] / 1e6
			self[l] += v
			selfSamples[l] = append(selfSamples[l], v)
		}
	}

	fmt.Fprintf(w, "per-layer self time, ms per traced query (n=%d):\n", len(traced))
	total := 0.0
	for _, l := range layers {
		total += self[l]
		fmt.Fprintf(w, "  %-10s mean %9.4f   %v\n", l, ratio(self[l], nt), summarize(selfSamples[l]))
	}
	closure := ratio(total, latSum)
	benchShare := ratio(self["bench"], latSum)
	closed := nt > 0 && math.Abs(closure-1) < closureTolerance && benchShare <= benchTolerance
	fmt.Fprintf(w, "closure: layer self times sum to %.4f%% of client latency (tolerance ±%g%%); bench share %.3f%% (tolerance %g%%): %s\n",
		100*closure, 100*closureTolerance, 100*benchShare, 100*benchTolerance, map[bool]string{true: "ok", false: "FAILED"}[closed])

	m := map[string]metric{}
	put := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	for _, l := range []string{"service", "compile", "core", "mapreduce", "dfs", "bench"} {
		put(l+".self_ms_per_query", ratio(self[l], nt), "ms")
	}
	put("service.overhead_ms", median(overhead), "ms")
	put("compile.ms_per_query", ratio(p.compile, nt), "ms")
	put("core.probe_ms_per_query", ratio(p.probe, nt), "ms")
	put("core.candidates_per_probe", ratio(float64(c.candidates), float64(c.probes)), "ratio")
	put("core.traversals_per_probe", ratio(float64(c.traversals), float64(c.probes)), "ratio")
	put("core.probe_win_ratio", ratio(float64(p.wins), float64(p.candidates)), "ratio")
	put("core.claim_wait_ms_per_query", ratio(p.claimWait, nt), "ms")
	put("core.reused_jobs_ratio", ratio(float64(jobsReused), float64(jobsTotal)), "ratio")
	put("core.rewrites_per_query", ratio(float64(rewrites), n), "count")
	put("core.refresh_ms_per_query", ratio(p.refresh, nt), "ms")
	put("core.delta_bytes_per_refresh", ratio(float64(c.deltaBytes), float64(c.refreshes)), "bytes")
	put("core.journal_records_per_query", ratio(float64(c.journal), n), "count")
	put("core.commit_ms_per_query", ratio(p.commit, nt), "ms")
	put("mapreduce.exec_ms_per_query", ratio(p.exec, nt), "ms")
	put("mapreduce.jobs_run_per_query", ratio(float64(jobsRun), n), "count")
	put("mapreduce.rows_per_s", ratio(o.rows, o.execWall.Seconds()), "1/s")
	put("batchcache.hit_ratio", ratio(float64(c.hits), float64(c.hits+c.misses)), "ratio")
	put("batchcache.resident_mb", float64(c.resident)/mib, "MB")
	put("batchcache.evicted_mb", float64(c.evictedBytes)/mib, "MB")
	put("batchcache.invalidations", float64(c.invalidated), "count")
	put("dfs.read_mb_per_query", ratio(float64(c.read)/mib, n), "MB")
	put("dfs.write_mb_per_query", ratio(float64(c.written)/mib, n), "MB")
	put("dfs.append_ms_per_round", mean(o.appendMs), "ms")
	put("tuple.decode_mb_s", o.decodeMBs, "MB/s")
	put("obs.snapshot_ms_per_query", ratio(ms(snap), nt), "ms")
	// The benchmark's own tracing cost: traced against untraced
	// queries of the same run, on the client's loop time (throughput)
	// and on latency.
	put("obs.trace_overhead_pct", 100*(ratio(median(iterMs(traced)), median(iterMs(untraced)))-1), "%")
	put("obs.latency_overhead_pct", 100*(ratio(median(latenciesMs(traced)), median(latenciesMs(untraced)))-1), "%")
	return m, closed
}

func printMetrics(w io.Writer, m map[string]metric) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  %-36s %14.6g %s\n", n, m[n].Value, m[n].Unit)
	}
}

func latenciesMs(rs []queryRecord) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = ms(r.latency)
	}
	return out
}

func iterMs(rs []queryRecord) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = ms(r.iter)
	}
	return out
}

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return ratio(s, float64(len(xs)))
}

// writeResult prints the result as the last line of standard output.
func writeResult(w io.Writer, r result) error {
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, strings.TrimSpace(string(b)))
	return err
}
