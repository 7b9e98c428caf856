package main

import (
	"fmt"
	"runtime"
	"time"

	restore "repro"
	"repro/internal/dfs"
	"repro/internal/pigmix"
)

// runCold is cold-150gb: the PigMix 150GB instance, generated once per
// seed. Each round is a fresh System, with Aggressive sub-job and
// whole-job storage, over a copy of the generated DFS, running the
// 15-query pass with one client. The repository and the batch cache
// start empty every round, so the engine, decoding, the DFS and sub-job
// materialization do the work.
//
// The pass is 15 different queries, so the per-query latency sample is
// 15 clusters and its median falls on the cliff between them (L8 at
// ~30 ms, the next query at ~200 ms); p50_ms is therefore the median
// over rounds of the round's mean per-query latency. p95_ms stays the
// per-query percentile: the slowest query of the pass.
func runCold(e *env) (*outcome, error) {
	sc := pigmix.Scale150GB
	o := &outcome{}
	var src *dfs.FS
	var ref map[string]digest
	for i := 0; i < setupReps; i++ {
		start := time.Now()
		fs := dfs.New()
		if _, err := pigmix.Generate(fs, sc, e.seed); err != nil {
			return nil, fmt.Errorf("generate: %w", err)
		}
		r, err := reference(fs, sc, pigmixSuite)
		if err != nil {
			return nil, err
		}
		o.setups = append(o.setups, time.Since(start))
		e.rec.other(&span{Name: "setup", Layer: "bench", Start: start.UnixNano(), End: time.Now().UnixNano()})
		src, ref = fs, r
	}
	inputs, err := hashDatasets(src, "pigmix")
	if err != nil {
		return nil, err
	}
	o.inputs = inputs
	inputBytes := float64(src.Size("pigmix"))
	simScale, recScale := pigmix.SimScaleFor(src, sc), pigmix.RecordScaleFor(sc)

	cfg := restore.DefaultConfig()
	cfg.Options = reuseOptions()
	compiler := restore.New(cfg)
	jobs, err := jobCounts(e, compiler, pigmixSuite)
	compiler.Close()
	if err != nil {
		return nil, err
	}

	// The window is the rounds' own time: copying the inputs, checking
	// the copy and collecting garbage between rounds are not measured.
	heap := watchHeap()
	for k := 0; o.elapsed < e.seconds; k++ {
		// A traced run alternates untraced and traced rounds, so the
		// benchmark's own tracing cost shows as obs.trace_overhead_pct.
		traced := e.traced && k%2 == 1
		fs, err := copyFS(src)
		if err != nil {
			return nil, err
		}
		if k == 0 {
			if got, err := hashDatasets(fs, "pigmix"); err != nil || !sameHashes(got, o.inputs) {
				return nil, fmt.Errorf("copied inputs differ from the generated ones (%v)", err)
			}
		}
		// Collect the previous round's System and the copy's garbage
		// now, so no round pays for another's.
		runtime.GC()

		start, cpu := time.Now(), cpuTime()
		sys, err := restore.Recover(cfg, fs)
		if err != nil {
			return nil, err
		}
		sys.SetScales(simScale, recScale)
		if traced {
			e.rec.other(&span{Name: "restore.Recover", Layer: "core", Start: start.UnixNano(), End: time.Now().UnixNano()})
		}
		before := snapshot(sys)
		results := make([]*restore.Result, len(pigmixSuite))
		recs := make([]queryRecord, len(pigmixSuite))
		for i, name := range pigmixSuite {
			q, err := pigmix.Get(name)
			if err != nil {
				return nil, err
			}
			recs[i], results[i], err = runQuery(e, sys, name, q.Script, traced)
			recs[i].failed = err != nil
			recs[i].jobsTotal = jobs[name]
		}
		round := time.Since(start)
		o.cpu += cpuTime() - cpu
		o.elapsed += round
		o.rounds = append(o.rounds, round)
		o.passLatency = append(o.passLatency, ms(round)/float64(len(pigmixSuite)))
		o.counters.addDelta(before, snapshot(sys))
		o.repo = append(o.repo, float64(sys.StorageStats().UsageBytes)/inputBytes)

		for i, name := range pigmixSuite {
			q, _ := pigmix.Get(name)
			if results[i] != nil {
				if got, err := resultDigest(fs, results[i], q.Output); err == nil {
					recs[i].check(got, ref[name])
				}
			}
			o.engineWork(recs[i], recScale)
			o.queries = append(o.queries, recs[i])
		}
		sys.Close()
	}
	o.heapPeak = heap.Stop()
	o.notes = append(o.notes, fmt.Sprintf("rounds: %d fresh Systems over a copy of the %s instance (%.1f MB of text)",
		len(o.rounds), sc.Name, inputBytes/(1<<20)))
	if e.traced {
		if o.decodeMBs, err = decodeRate(e, src, "pigmix"); err != nil {
			return nil, err
		}
	}
	return o, nil
}
