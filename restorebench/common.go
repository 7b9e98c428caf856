package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	restore "repro"
	"repro/internal/dfs"
	"repro/internal/obs"
	"repro/internal/pigmix"
	"repro/internal/service"
	"repro/internal/tuple"
)

// pigmixSuite is the fixed 15-query PigMix pass, in Zipf popularity
// order for warm-mix (L2 the hottest).
var pigmixSuite = []string{"L2", "L3", "L3a", "L3b", "L3c", "L4", "L5", "L6", "L7", "L8", "L11", "L11a", "L11b", "L11c", "L11d"}

// setupReps is how many times each workload sets up; setup_s is their
// median.
const setupReps = 3

// reuseOptions is the ReStore configuration under test: the only
// options the benchmark sets. It never sets the oracle switches
// (LinearMatch, DisableBatchCache, DisableTrace, DisableClaims,
// ClaimFallback), so they can be removed without touching it.
func reuseOptions() restore.Options {
	return restore.Options{Reuse: true, KeepWholeJobs: true, Heuristic: restore.Aggressive}
}

// env is one benchmark invocation's settings.
type env struct {
	seed    int64
	seconds time.Duration
	traced  bool
	rec     *recorder // nil unless traced
}

// queryRecord is one completed query of a timed window.
type queryRecord struct {
	name    string
	latency time.Duration // client-observed: submit until the result is known
	iter    time.Duration // the client's whole loop iteration, trace fetch included
	failed  bool          // the query returned an error
	ok      bool          // its output matched the reuse-off reference
	exact   bool          // ... to the last float digit

	sim                            time.Duration
	jobsRun, jobsReused, jobsTotal int
	rewrites                       int
	rows                           int64         // input records the executed jobs read, at the record scale
	execWall                       time.Duration // engine wall time of the executed jobs
	traced                         bool
	prog                           progStats
	self                           map[string]float64 // ns per layer; traced queries only
	snapshot                       time.Duration      // fetching the program's trace
}

// progStats sums one query's program spans by kind.
type progStats struct {
	submit, compile, probe, claimWait, refresh, exec, commit float64 // ms
	candidates, wins                                         int
}

func programStats(tr *restore.TraceSnapshot) progStats {
	var p progStats
	if tr == nil {
		return p
	}
	var walk func(s *restore.TraceSpan)
	walk = func(s *restore.TraceSpan) {
		switch s.Kind {
		case obs.KindSubmit:
			p.submit += s.WallMs
		case obs.KindCompile:
			p.compile += s.WallMs
		case obs.KindProbe:
			p.probe += s.WallMs
		case obs.KindCandidate:
			p.candidates++
			if s.Note == obs.ReasonWin {
				p.wins++
			}
		case obs.KindClaimWait:
			p.claimWait += s.WallMs
		case obs.KindRefresh:
			p.refresh += s.WallMs
		case obs.KindJobExec:
			p.exec += s.WallMs
		case obs.KindStoreCommit:
			p.commit += s.WallMs
		}
		for _, c := range s.Children {
			walk(c)
		}
	}
	for _, s := range tr.Spans {
		walk(s)
	}
	return p
}

// counters are the program's cumulative counters the per-layer metrics
// difference across a timed window.
type counters struct {
	probes, candidates, traversals       int64
	refreshes, deltaBytes                int64
	journal, compactions                 int64
	hits, misses                         int64
	evictions, evictedBytes, invalidated int64
	resident                             int64 // a level, not a count
	read, written                        int64
}

func snapshot(sys *restore.System) counters {
	b := service.SystemStats(sys)
	return counters{
		probes:       b.Matcher.Probes,
		candidates:   b.Matcher.Candidates,
		traversals:   b.Matcher.FullTraversals,
		refreshes:    b.Delta.Refreshes,
		deltaBytes:   b.Delta.DeltaBytesRead,
		journal:      b.Durability.Appends,
		compactions:  b.Durability.Compactions,
		hits:         b.BatchCache.Hits,
		misses:       b.BatchCache.Misses,
		evictions:    b.BatchCache.Evictions,
		evictedBytes: b.BatchCache.EvictedBytes,
		invalidated:  b.BatchCache.Invalidations,
		resident:     b.BatchCache.UsedBytes,
		read:         sys.FS().BytesRead(),
		written:      sys.FS().BytesWritten(),
	}
}

// addDelta accumulates after−before into c; the resident level is
// taken from after.
func (c *counters) addDelta(before, after counters) {
	c.probes += after.probes - before.probes
	c.candidates += after.candidates - before.candidates
	c.traversals += after.traversals - before.traversals
	c.refreshes += after.refreshes - before.refreshes
	c.deltaBytes += after.deltaBytes - before.deltaBytes
	c.journal += after.journal - before.journal
	c.compactions += after.compactions - before.compactions
	c.hits += after.hits - before.hits
	c.misses += after.misses - before.misses
	c.evictions += after.evictions - before.evictions
	c.evictedBytes += after.evictedBytes - before.evictedBytes
	c.invalidated += after.invalidated - before.invalidated
	c.resident = after.resident
	c.read += after.read - before.read
	c.written += after.written - before.written
}

// outcome is one workload run's raw measurements; report turns it into
// metrics.
type outcome struct {
	setups  []time.Duration
	queries []queryRecord
	rounds  []time.Duration
	// passLatency, when set, is the latency sample p50_ms is taken
	// over instead of the per-query latencies: one mean per-query
	// latency per round (see runCold).
	passLatency []float64
	elapsed     time.Duration // the denominator of qps
	cpu         time.Duration // process CPU time over the same span as elapsed
	repo        []float64     // repository bytes per input byte, sampled
	heapPeak    uint64
	counters    counters
	inputs      map[string]string // generated dataset → content hash
	notes       []string          // workload-specific lines for the report

	// Engine throughput: input rows (record scale undone) and engine
	// wall time of the executed jobs of in-process queries.
	rows     float64
	execWall time.Duration

	// Traced runs only.
	decodeMBs float64
	appendMs  []float64
}

// engineWork adds an in-process query's executed jobs to the engine
// throughput totals.
func (o *outcome) engineWork(r queryRecord, recordScale float64) {
	o.rows += float64(r.rows) / recordScale
	o.execWall += r.execWall
}

// runQuery submits script in-process and waits for it, as one client.
// With a recorder it wraps the calls in spans and folds in the
// program's trace.
func runQuery(e *env, sys *restore.System, name, script string, traced bool) (queryRecord, *restore.Result, error) {
	rec := queryRecord{name: name, traced: traced}
	start := time.Now()
	q, err := sys.Submit(context.Background(), script)
	if err != nil {
		return rec, nil, err
	}
	submitted := time.Now()
	res, err := q.Wait()
	end := time.Now()
	rec.latency = end.Sub(start)
	if err != nil {
		return rec, nil, err
	}
	rec.sim = res.SimTime
	rec.jobsRun, rec.jobsReused, rec.rewrites = res.JobsRun, res.JobsReused, len(res.Rewrites)
	for _, js := range res.JobStats {
		rec.rows += js.InputRecords
		rec.execWall += js.WallTime
	}
	if traced {
		tr := q.Trace()
		rec.snapshot = time.Since(end)
		root := &span{Name: "query", Layer: "bench", Start: start.UnixNano(), End: end.UnixNano(), Kids: []*span{
			{Name: "System.Submit", Layer: "core", Start: start.UnixNano(), End: submitted.UnixNano()},
			{Name: "Query.Wait", Layer: "core", Start: submitted.UnixNano(), End: end.UnixNano()},
		}}
		rec.fold(e, q.ID(), root, tr)
	}
	rec.iter = time.Since(start)
	return rec, res, nil
}

// fold records a traced query: its span tree, self times and program
// span sums.
func (rec *queryRecord) fold(e *env, id string, root *span, tr *restore.TraceSnapshot) {
	if tr != nil {
		id = tr.QueryID
	}
	qt := &queryTrace{ID: id, Query: rec.name, Bench: root, Program: programSpans(tr)}
	rec.self = selfTimes(qt)
	rec.prog = programStats(tr)
	e.rec.query(qt)
}

// outputLines reads every line of the dataset at path.
func outputLines(fs dfs.Backend, path string) ([]string, error) {
	files := fs.List(path)
	if len(files) == 0 {
		return nil, fmt.Errorf("output %s does not exist", path)
	}
	var lines []string
	for _, f := range files {
		data, err := fs.ReadFile(f)
		if err != nil {
			return nil, err
		}
		for _, l := range strings.Split(string(data), "\n") {
			if l != "" {
				lines = append(lines, l)
			}
		}
	}
	return lines, nil
}

// floatDigits is the precision float fields of outputs are compared
// at. A SUM or AVG over floats depends on summation order, which the
// split layout changes in the last digits — and so does reusing a
// stored input whose layout differs from the original's. The reuse-off
// reference is one valid order, not the only right answer.
const floatDigits = 12

// digest is an order-independent content hash of a query output, taken
// exactly and with float fields rounded to floatDigits significant
// digits. Both sides are hashed in decoded and re-encoded form, the
// form the HTTP /output endpoint returns rows in.
type digest struct{ exact, rounded string }

func digestLines(lines []string) digest {
	exact := make([]string, len(lines))
	rounded := make([]string, len(lines))
	for i, l := range lines {
		t := tuple.DecodeText(l)
		exact[i] = tuple.EncodeText(t)
		rounded[i] = tuple.EncodeText(roundFloats(t).(tuple.Tuple))
	}
	return digest{hashSorted(exact), hashSorted(rounded)}
}

func roundFloats(v tuple.Value) tuple.Value {
	switch x := v.(type) {
	case float64:
		r, _ := strconv.ParseFloat(strconv.FormatFloat(x, 'g', floatDigits, 64), 64)
		return r
	case tuple.Tuple:
		out := make(tuple.Tuple, len(x))
		for i := range x {
			out[i] = roundFloats(x[i])
		}
		return out
	case *tuple.Bag:
		out := &tuple.Bag{Tuples: make([]tuple.Tuple, len(x.Tuples))}
		for i, t := range x.Tuples {
			out.Tuples[i] = roundFloats(t).(tuple.Tuple)
		}
		return out
	}
	return v
}

func hashSorted(lines []string) string {
	sort.Strings(lines)
	h := sha256.New()
	for _, l := range lines {
		h.Write([]byte(l))
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// check records how a query's output compares with the reference.
func (rec *queryRecord) check(got, want digest) {
	rec.ok = got.rounded == want.rounded
	rec.exact = got.exact == want.exact
}

// resultDigest digests the output a query stored at userPath, following
// any whole-job-reuse redirection.
func resultDigest(fs dfs.Backend, res *restore.Result, userPath string) (digest, error) {
	path := userPath
	if p, ok := res.FinalOutputs[userPath]; ok && p != "" {
		path = p
	}
	lines, err := outputLines(fs, path)
	if err != nil {
		return digest{}, err
	}
	return digestLines(lines), nil
}

// hashDatasets content-hashes every dataset under prefix.
func hashDatasets(fs dfs.Backend, prefix string) (map[string]string, error) {
	out := map[string]string{}
	for _, ds := range fs.Datasets(prefix) {
		h := sha256.New()
		for _, f := range fs.List(ds) {
			data, err := fs.ReadFile(f)
			if err != nil {
				return nil, err
			}
			fmt.Fprintf(h, "%s %d\n", f, len(data))
			h.Write(data)
		}
		out[ds] = hex.EncodeToString(h.Sum(nil))[:16]
	}
	return out, nil
}

func sameHashes(a, b map[string]string) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

// copyFS copies every file of src into a fresh in-memory DFS.
func copyFS(src dfs.Backend) (*dfs.FS, error) {
	dst := dfs.New()
	for _, f := range src.List("") {
		data, err := src.ReadFile(f)
		if err != nil {
			return nil, err
		}
		if err := dst.WriteFile(f, data); err != nil {
			return nil, err
		}
	}
	return dst, nil
}

// reference runs each query once with reuse off over a private copy of
// src and returns each query's output digest. It runs at the same scales
// as the System under test: the simulated split size decides how many
// partial aggregates a float sum is combined from, and so its last
// digits.
func reference(src dfs.Backend, sc pigmix.Scale, names []string) (map[string]digest, error) {
	fs, err := copyFS(src)
	if err != nil {
		return nil, err
	}
	sys, err := restore.Recover(restore.DefaultConfig(), fs)
	if err != nil {
		return nil, err
	}
	defer sys.Close()
	sys.SetScales(pigmix.SimScaleFor(fs, sc), pigmix.RecordScaleFor(sc))
	out := map[string]digest{}
	for _, name := range names {
		q, err := pigmix.Get(name)
		if err != nil {
			return nil, err
		}
		res, err := sys.Execute(q.Script)
		if err != nil {
			return nil, fmt.Errorf("reference %s: %w", name, err)
		}
		if out[name], err = resultDigest(fs, res, q.Output); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// jobCounts compiles each query once (System.Compile) for its job
// count, the base of core.reused_jobs_ratio.
func jobCounts(e *env, sys *restore.System, names []string) (map[string]int, error) {
	out := map[string]int{}
	for _, name := range names {
		q, err := pigmix.Get(name)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		n, err := sys.Compile(q.Script)
		e.rec.other(&span{Name: "System.Compile", Layer: "compile", Start: start.UnixNano(), End: time.Now().UnixNano()})
		if err != nil {
			return nil, err
		}
		out[name] = n
	}
	return out, nil
}

// decodeRate times tuple.DecodeTextBatch over the workload's own input
// files under prefix — each file's first 4 MiB, cut at a line end — and
// returns the median of three passes in MiB/s.
func decodeRate(e *env, fs dfs.Backend, prefix string) (float64, error) {
	const maxChunk = 4 << 20
	var chunks [][]byte
	for _, f := range fs.List(prefix) {
		data, err := fs.ReadFile(f)
		if err != nil {
			return 0, err
		}
		if len(data) > maxChunk {
			data = data[:bytes.LastIndexByte(data[:maxChunk], '\n')+1]
		}
		chunks = append(chunks, data)
	}
	var rates []float64
	for rep := 0; rep < 3; rep++ {
		start := time.Now()
		n := 0
		for _, c := range chunks {
			if _, err := tuple.DecodeTextBatch(c); err != nil {
				return 0, err
			}
			n += len(c)
		}
		el := time.Since(start)
		e.rec.other(&span{Name: "tuple.DecodeTextBatch", Layer: "tuple", Start: start.UnixNano(), End: start.UnixNano() + int64(el)})
		rates = append(rates, float64(n)/(1<<20)/el.Seconds())
	}
	return median(rates), nil
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapWatch samples the live heap every few milliseconds and keeps the
// peak. Only its goroutine touches peak until Stop has waited for it.
type heapWatch struct {
	peak uint64
	stop chan struct{}
	done chan struct{}
}

func watchHeap() *heapWatch {
	h := &heapWatch{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		t := time.NewTicker(2 * time.Millisecond)
		defer t.Stop()
		for {
			metrics.Read(sample)
			h.peak = max(h.peak, sample[0].Value.Uint64())
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// Stop ends sampling and returns the peak in bytes.
func (h *heapWatch) Stop() uint64 {
	close(h.stop)
	<-h.done
	return h.peak
}
